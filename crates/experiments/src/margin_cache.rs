//! Persistent, versioned margin-table artifact.
//!
//! Margin-table construction is the dominant startup cost of every
//! experiment binary: ~160 LQG designs plus stability-curve fits before
//! the first benchmark is drawn. The tables are a pure function of the
//! plant pool, the grid shape, and the conservatism parameters, so they
//! are cached on disk across *invocations* (the in-process `OnceLock`
//! caches in [`crate::margins`] only span one process).
//!
//! The artifact is a plain text file in the `witness.rs` idiom: every
//! `f64` is serialized as its 16-hex-digit IEEE-754 bit pattern, so a
//! load reproduces the computed tables **bit-for-bit** — mandatory,
//! because the `GridSnapped` benchmark profile embeds table entries in
//! seeded experiment outputs that are part of the regression surface.
//!
//! The header carries everything the tables are keyed on. On any
//! mismatch — version tag, kernel revision, plant-pool fingerprint,
//! grid shape, period series, safety factor — the loader reports a
//! [`Stale`] naming the field and [`warm_cached_tables`] recomputes with
//! a warning; a stale artifact is *never* silently reused (DESIGN.md
//! §10, codec in §15).

use crate::artifact::{hex_f64, hex_u64, read_artifact, Fnv64, Header, LineCursor, Stale};
use crate::margins::{
    self, InterpSegmentRun, MarginEntry, MarginInterp, PlantMargins, CURVE_POINTS,
    DENSE_GRID_POINTS, GRID_POINTS, INTERP_SAFETY, PERIOD_SERIES,
};
use crate::report::RESULTS_DIR;
use csa_control::plants;
use csa_linalg::Mat;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Version tag of the margin-table artifact format; first header field.
pub const MARGIN_ARTIFACT_TAG: &str = "csamt1";

/// Revision of the exact margin kernel's numeric path. Bump whenever a
/// change can move any table bit (it invalidates every artifact in the
/// field); the differential suite in `csa-control` pins the current
/// revision against the retained references. Checkpoint journals
/// (`checkpoint.rs`) embed it too: a kernel change invalidates partial
/// sweep results just as it invalidates margin tables.
pub(crate) const KERNEL_REVISION: u32 = 1;

/// File name of the artifact inside the cache directory.
const ARTIFACT_FILE: &str = "margin_tables.csamt";

fn write_mat(h: &mut Fnv64, m: &Mat) {
    h.write_u64(m.rows() as u64);
    h.write_u64(m.cols() as u64);
    for &v in m.as_slice() {
        h.write_f64(v);
    }
}

/// Deterministic fingerprint of the compiled-in benchmark plant pool:
/// names, continuous models (bit-exact), period ranges, and LQG weights.
/// Any pool change invalidates every margin-table artifact.
pub fn pool_fingerprint() -> u64 {
    let pool = plants::benchmark_pool().expect("benchmark pool must construct");
    let mut h = Fnv64::default();
    h.write_u64(pool.len() as u64);
    for bp in &pool {
        h.write_bytes(bp.name.as_bytes());
        h.write_bytes(&[0]);
        h.write_f64(bp.period_range.0);
        h.write_f64(bp.period_range.1);
        for m in [bp.plant.a(), bp.plant.b(), bp.plant.c(), bp.plant.d()] {
            write_mat(&mut h, m);
        }
        for m in [
            &bp.weights.q1,
            &bp.weights.q2,
            &bp.weights.r1,
            &bp.weights.r2,
        ] {
            write_mat(&mut h, m);
        }
    }
    h.finish()
}

fn series_fingerprint() -> u64 {
    let mut h = Fnv64::default();
    h.write_u64(PERIOD_SERIES.len() as u64);
    for &p in &PERIOD_SERIES {
        h.write_f64(p);
    }
    h.finish()
}

fn header_line() -> String {
    Header::new(MARGIN_ARTIFACT_TAG)
        .field("kernel", KERNEL_REVISION)
        .field("pool", hex_u64(pool_fingerprint()))
        .field(
            "grid",
            format_args!("{GRID_POINTS},{DENSE_GRID_POINTS},{CURVE_POINTS}"),
        )
        .field("series", hex_u64(series_fingerprint()))
        .field("safety", hex_f64(INTERP_SAFETY))
        .finish()
}

/// Location of the margin-table artifact: `$CSA_MARGIN_CACHE_DIR` if
/// set, else the standard `results/` output directory.
pub fn margin_artifact_path() -> PathBuf {
    std::env::var_os("CSA_MARGIN_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(RESULTS_DIR))
        .join(ARTIFACT_FILE)
}

fn push_f64(out: &mut String, v: f64) {
    let _ = write!(out, "|{}", hex_f64(v));
}

/// Serializes the margin tables and interpolants to `path` (creating
/// parent directories), bit-losslessly.
///
/// The write is atomic ([`crate::write_atomic`]): a crash mid-write can
/// never leave a torn `csamt1` file — previously a partial write was
/// only caught if the truncation happened to break header parsing.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_margin_artifact(
    path: &Path,
    tables: &[PlantMargins],
    interp: &[MarginInterp],
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("# Margin-table artifact: precomputed stability-margin tables of the\n");
    out.push_str("# benchmark plant pool, f64s as IEEE-754 bit patterns. Regenerated\n");
    out.push_str("# automatically whenever the header no longer matches the binary.\n");
    out.push_str(&header_line());
    out.push('\n');
    for t in tables {
        out.push_str(&format!("table|{}|{}\n", t.name, t.entries.len()));
        for e in &t.entries {
            out.push('e');
            push_f64(&mut out, e.period);
            push_f64(&mut out, e.a);
            push_f64(&mut out, e.b);
            out.push('\n');
        }
    }
    for t in interp {
        out.push_str(&format!("interp|{}|{}\n", t.name, t.runs.len()));
        for r in &t.runs {
            out.push_str("run");
            push_f64(&mut out, r.p_lo);
            push_f64(&mut out, r.p_hi);
            out.push_str(&format!("|{}\n", r.x.len()));
            for k in 0..r.x.len() {
                out.push('k');
                push_f64(&mut out, r.x[k]);
                push_f64(&mut out, r.a[k]);
                push_f64(&mut out, r.b[k]);
                push_f64(&mut out, r.ta[k]);
                push_f64(&mut out, r.tb[k]);
                out.push('\n');
            }
            for s in 0..r.x.len() - 1 {
                out.push('f');
                push_f64(&mut out, r.shrink_b[s]);
                push_f64(&mut out, r.inflate_a[s]);
                out.push('\n');
            }
        }
    }
    crate::report::write_atomic(path, &out)
}

/// Loads and validates a margin-table artifact.
///
/// # Errors
///
/// [`Stale`] when the file is absent, its header does not match the
/// compiled-in pool/grid/kernel, or its body is corrupt. Callers must
/// recompute in every error case.
pub fn load_margin_artifact(path: &Path) -> Result<(Vec<PlantMargins>, Vec<MarginInterp>), Stale> {
    let text = read_artifact(path)?;
    let pool = plants::benchmark_pool().expect("benchmark pool must construct");
    let mut cur = LineCursor::new(&text);
    cur.header(&header_line())?;

    let mut tables = Vec::with_capacity(pool.len());
    for bp in &pool {
        let line = cur.next("table record")?;
        let f = line.record("table", 2)?;
        if f[0] != bp.name {
            return Err(line.malformed(format_args!(
                "table for {:?}, expected {:?} (pool order)",
                f[0], bp.name
            )));
        }
        let count: usize = line.int(f[1], "count")?;
        // Bounded by the lines left: a corrupt count must fail as
        // malformed, not abort on a huge allocation.
        let mut entries = Vec::with_capacity(count.min(cur.remaining()));
        for _ in 0..count {
            let line = cur.next("table entry")?;
            let f = line.record("e", 3)?;
            entries.push(MarginEntry {
                period: line.f64(f[0], "period")?,
                a: line.f64(f[1], "a")?,
                b: line.f64(f[2], "b")?,
            });
        }
        tables.push(PlantMargins {
            name: bp.name,
            entries,
        });
    }

    let mut interp = Vec::with_capacity(pool.len());
    for bp in &pool {
        let line = cur.next("interp record")?;
        let f = line.record("interp", 2)?;
        if f[0] != bp.name {
            return Err(line.malformed(format_args!(
                "interpolant for {:?}, expected {:?} (pool order)",
                f[0], bp.name
            )));
        }
        let n_runs: usize = line.int(f[1], "run count")?;
        let mut runs = Vec::with_capacity(n_runs.min(cur.remaining()));
        for _ in 0..n_runs {
            let line = cur.next("run record")?;
            let f = line.record("run", 3)?;
            let p_lo = line.f64(f[0], "p_lo")?;
            let p_hi = line.f64(f[1], "p_hi")?;
            let knots: usize = line.int(f[2], "knot count")?;
            if knots < 2 {
                return Err(line.malformed(format_args!("run with {knots} knots (need >= 2)")));
            }
            let cap = knots.min(cur.remaining());
            let mut run = InterpSegmentRun {
                p_lo,
                p_hi,
                x: Vec::with_capacity(cap),
                a: Vec::with_capacity(cap),
                b: Vec::with_capacity(cap),
                ta: Vec::with_capacity(cap),
                tb: Vec::with_capacity(cap),
                shrink_b: Vec::with_capacity(cap),
                inflate_a: Vec::with_capacity(cap),
            };
            for _ in 0..knots {
                let line = cur.next("knot record")?;
                let f = line.record("k", 5)?;
                run.x.push(line.f64(f[0], "x")?);
                run.a.push(line.f64(f[1], "a")?);
                run.b.push(line.f64(f[2], "b")?);
                run.ta.push(line.f64(f[3], "ta")?);
                run.tb.push(line.f64(f[4], "tb")?);
            }
            for _ in 0..knots - 1 {
                let line = cur.next("factor record")?;
                let f = line.record("f", 2)?;
                run.shrink_b.push(line.f64(f[0], "shrink_b")?);
                run.inflate_a.push(line.f64(f[1], "inflate_a")?);
            }
            runs.push(run);
        }
        interp.push(MarginInterp {
            name: bp.name,
            runs,
        });
    }
    cur.finish()?;
    Ok((tables, interp))
}

/// Warms both margin caches from the persistent artifact when a valid
/// one exists, else computes them (sharded over `threads` workers, 0 =
/// available parallelism) and writes the artifact for the next
/// invocation.
///
/// A header mismatch recomputes with a warning on stderr; the mismatched
/// artifact is overwritten, never reused. Loaded tables are bit-identical
/// to recomputed ones (pinned by `tests/margin_artifact.rs`), so callers
/// cannot observe which path ran — except in startup time.
pub fn warm_cached_tables(threads: usize) -> (&'static [PlantMargins], &'static [MarginInterp]) {
    if let (Some(t), Some(i)) = (
        margins::margin_tables_if_warm(),
        margins::interp_tables_if_warm(),
    ) {
        return (t, i);
    }
    let path = margin_artifact_path();
    match load_margin_artifact(&path) {
        Ok((tables, interp)) => (
            margins::seed_margin_tables(tables),
            margins::seed_interp_tables(interp),
        ),
        Err(reason) => {
            match &reason {
                Stale::Missing => {
                    eprintln!(
                        "margins: no artifact at {} — computing tables",
                        path.display()
                    );
                }
                other => {
                    eprintln!(
                        "margins: WARNING: artifact at {} is unusable ({other}); recomputing",
                        path.display()
                    );
                }
            }
            let tables = margins::warm_margin_tables(threads);
            let interp = margins::warm_interpolated_tables(threads);
            match save_margin_artifact(&path, tables, interp) {
                Ok(()) => eprintln!("margins: wrote artifact {}", path.display()),
                Err(e) => eprintln!(
                    "margins: WARNING: could not write artifact {}: {e}",
                    path.display()
                ),
            }
            (tables, interp)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_stable_within_a_process() {
        assert_eq!(pool_fingerprint(), pool_fingerprint());
        assert_eq!(series_fingerprint(), series_fingerprint());
        assert_ne!(pool_fingerprint(), series_fingerprint());
    }

    #[test]
    fn header_checks_pass_on_own_output_and_name_each_field() {
        let header = header_line();
        LineCursor::new(&header)
            .header(&header)
            .expect("own header must validate");
        let fields: Vec<&str> = header.split('|').collect();
        let keys = ["tag", "kernel", "pool", "grid", "series", "safety"];
        for (idx, want) in keys.into_iter().enumerate() {
            let mut f: Vec<String> = fields.iter().map(|s| s.to_string()).collect();
            f[idx].push('x');
            let line = f.join("|");
            let got = LineCursor::new(&line).header(&header).unwrap_err();
            assert_eq!(got, Stale::Mismatch(want.to_string()), "field {idx}");
        }
    }

    /// FNV-1a digest of the artifact bytes [`save_margin_artifact`] wrote
    /// for freshly computed tables before the artifact codec was shared
    /// (DESIGN.md §15). The writer must stay byte-identical: warm starts
    /// in the field load these files.
    const MARGIN_ARTIFACT_DIGEST: u64 = 0x51d2_a0a3_d8d4_eab4;

    #[test]
    fn artifact_bytes_are_pinned() {
        let dir = std::env::temp_dir().join(format!("csa_margin_pin_{}", std::process::id()));
        let path = dir.join(ARTIFACT_FILE);
        save_margin_artifact(
            &path,
            margins::warm_margin_tables(0),
            margins::warm_interpolated_tables(0),
        )
        .unwrap();
        let mut h = Fnv64::default();
        h.write_bytes(&std::fs::read(&path).unwrap());
        std::fs::remove_dir_all(dir).unwrap();
        assert_eq!(
            h.finish(),
            MARGIN_ARTIFACT_DIGEST,
            "artifact bytes drifted: {:#018x}",
            h.finish()
        );
    }

    #[test]
    fn missing_artifact_is_reported_as_missing() {
        let err = load_margin_artifact(Path::new("/nonexistent/dir/margin_tables.csamt"));
        assert_eq!(err.unwrap_err(), Stale::Missing);
    }
}
