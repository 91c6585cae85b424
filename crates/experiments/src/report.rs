//! Small CSV/report helpers shared by the experiment binaries.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default output directory for experiment artifacts (CSV files),
/// relative to the working directory.
pub const RESULTS_DIR: &str = "results";

/// Atomically replaces the file at `path` with `content`: the bytes are
/// written to a uniquely named `.tmp` sibling in the same directory, fsynced, and
/// renamed over the target. A crash at any instant leaves either the
/// previous complete file or the new complete file — never a torn one
/// that parses as a truncated-but-plausible result. Every artifact
/// writer in this crate (CSV reports, witness files, the margin-table
/// artifact, checkpoint journals) goes through this helper.
///
/// # Errors
///
/// Propagates I/O failures (including creating parent directories).
pub fn write_atomic(path: &Path, content: &str) -> std::io::Result<()> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Some(dir) = dir {
        fs::create_dir_all(dir)?;
    }
    // The tmp file must live in the target's directory: rename(2) is
    // only atomic within one filesystem. Its name is unique per writer
    // (pid plus a process-local sequence number), so concurrent writers
    // of one target — threads, or processes sharing an artifact — never
    // truncate each other's bytes; the last rename wins, whole.
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let written = (|| -> std::io::Result<()> {
        // csa-lint: allow(A001) this IS the atomic tmp+fsync+rename implementation
        let mut f = fs::File::create(&tmp)?;
        f.write_all(content.as_bytes())?;
        // Flush to stable storage before the rename publishes the file:
        // otherwise a power loss could rename an empty inode into place.
        f.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written
}

/// Writes a CSV file under [`RESULTS_DIR`], creating the directory if
/// needed. Returns the full path.
///
/// The write is atomic ([`write_atomic`]): an interrupted run can never
/// leave a half-written CSV that looks like a complete result.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_csv(
    file_name: &str,
    header: &str,
    rows: impl IntoIterator<Item = String>,
) -> std::io::Result<PathBuf> {
    let path = Path::new(RESULTS_DIR).join(file_name);
    let mut content = String::with_capacity(256);
    content.push_str(header);
    content.push('\n');
    for row in rows {
        content.push_str(&row);
        content.push('\n');
    }
    write_atomic(&path, &content)?;
    Ok(path)
}

/// Builds the CSV file name for a benchmark-driven sweep: the base name,
/// a `_{profile}` suffix off the legacy grid-snapped default, and a
/// `_{search}[_budgetN]` suffix off the default unbudgeted
/// backtracking — so runs under different configurations never
/// overwrite each other's results.
pub fn csv_file_name(
    base: &str,
    profile: crate::PeriodModel,
    search: &crate::SearchConfig,
) -> String {
    let mut name = base.to_string();
    if profile != crate::PeriodModel::GridSnapped {
        name.push('_');
        name.push_str(profile.name());
    }
    if search.mode != crate::SearchMode::Backtracking || search.is_budgeted() {
        name.push('_');
        name.push_str(search.mode.name());
        if search.is_budgeted() {
            name.push_str(&format!("_budget{}", search.budget));
        }
    }
    name.push_str(".csv");
    name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_names_encode_profile_and_search() {
        use crate::{PeriodModel, SearchConfig, SearchMode};
        let default = SearchConfig::default();
        assert_eq!(
            csv_file_name("fig5", PeriodModel::GridSnapped, &default),
            "fig5.csv"
        );
        assert_eq!(
            csv_file_name("fig5", PeriodModel::Continuous, &default),
            "fig5_continuous.csv"
        );
        assert_eq!(
            csv_file_name(
                "fig5",
                PeriodModel::Continuous,
                &SearchConfig::new(SearchMode::Portfolio, 50_000)
            ),
            "fig5_continuous_portfolio_budget50000.csv"
        );
        assert_eq!(
            csv_file_name(
                "table1",
                PeriodModel::GridSnapped,
                &SearchConfig::new(SearchMode::Opa, u64::MAX)
            ),
            "table1_opa.csv"
        );
        assert_eq!(
            csv_file_name(
                "census",
                PeriodModel::GridSnapped,
                &SearchConfig::new(SearchMode::Backtracking, 1_000)
            ),
            "census_backtracking_budget1000.csv"
        );
    }

    /// Names of the files left in `dir` other than `keep`.
    fn leftovers(dir: &Path, keep: &str) -> Vec<std::ffi::OsString> {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|name| name != keep)
            .collect()
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let dir = Path::new(RESULTS_DIR).join("test_write_atomic");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("out.txt");
        write_atomic(&path, "first\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "first\n");
        write_atomic(&path, "second\n").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second\n");
        assert!(
            leftovers(&dir, "out.txt").is_empty(),
            "tmp file must not survive"
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn concurrent_atomic_writers_never_collide() {
        // Writers sharing one target (e.g. two cold processes saving the
        // margin artifact) must neither fail nor tear the file.
        let dir = Path::new(RESULTS_DIR).join("test_write_atomic_concurrent");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("shared.txt");
        let contents: Vec<String> = (0..8)
            .map(|k| format!("writer {k}\n").repeat(4096))
            .collect();
        let start = std::sync::Barrier::new(contents.len());
        std::thread::scope(|s| {
            for content in &contents {
                let (path, start) = (&path, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..4 {
                        write_atomic(path, content).unwrap();
                    }
                });
            }
        });
        let got = fs::read_to_string(&path).unwrap();
        assert!(
            contents.contains(&got),
            "final file is not one writer's content"
        );
        assert_eq!(
            leftovers(&dir, "shared.txt"),
            Vec::<std::ffi::OsString>::new()
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn csv_roundtrip() {
        let path = write_csv(
            "test_report_roundtrip.csv",
            "x,y",
            ["1,2".to_string(), "3,4".to_string()],
        )
        .unwrap();
        let content = fs::read_to_string(&path).unwrap();
        assert_eq!(content, "x,y\n1,2\n3,4\n");
        fs::remove_file(path).unwrap();
    }
}
