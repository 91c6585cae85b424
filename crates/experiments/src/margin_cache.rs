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
//! [`StaleReason`] and [`warm_cached_tables`] recomputes with a warning;
//! a stale artifact is *never* silently reused (DESIGN.md §10).

use crate::margins::{
    self, InterpSegmentRun, MarginEntry, MarginInterp, PlantMargins, CURVE_POINTS,
    DENSE_GRID_POINTS, GRID_POINTS, INTERP_SAFETY, PERIOD_SERIES,
};
use crate::report::RESULTS_DIR;
use csa_control::plants;
use csa_linalg::Mat;
use std::fmt;
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

/// Why a margin-table artifact cannot back the current request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StaleReason {
    /// No artifact file exists at the path (first run; not an error).
    Missing,
    /// The version tag is not [`MARGIN_ARTIFACT_TAG`].
    VersionTag,
    /// The artifact was produced by a different kernel revision.
    KernelRevision,
    /// The plant-pool fingerprint (names, models, weights, period
    /// ranges) does not match the compiled-in pool.
    PoolHash,
    /// The grid shape `(GRID_POINTS, DENSE_GRID_POINTS, CURVE_POINTS)`
    /// does not match.
    GridShape,
    /// The engineering period-series fingerprint does not match.
    SeriesHash,
    /// The `INTERP_SAFETY` conservatism factor does not match.
    SafetyFactor,
    /// The file exists but cannot be parsed (truncation, corruption, or
    /// an I/O error other than absence); carries a diagnostic.
    Malformed(String),
}

impl fmt::Display for StaleReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaleReason::Missing => write!(f, "no artifact file"),
            StaleReason::VersionTag => write!(f, "unrecognized artifact version tag"),
            StaleReason::KernelRevision => write!(f, "kernel revision mismatch"),
            StaleReason::PoolHash => write!(f, "plant-pool fingerprint mismatch"),
            StaleReason::GridShape => write!(f, "grid shape mismatch"),
            StaleReason::SeriesHash => write!(f, "period-series fingerprint mismatch"),
            StaleReason::SafetyFactor => write!(f, "conservatism safety-factor mismatch"),
            StaleReason::Malformed(m) => write!(f, "malformed artifact: {m}"),
        }
    }
}

/// Streaming FNV-1a 64-bit hasher (deterministic across platforms and
/// processes, unlike `std`'s `DefaultHasher`).
pub(crate) struct Fnv64(pub(crate) u64);

impl Fnv64 {
    pub(crate) fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub(crate) fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    fn write_mat(&mut self, m: &Mat) {
        self.write_u64(m.rows() as u64);
        self.write_u64(m.cols() as u64);
        for &v in m.as_slice() {
            self.write_f64(v);
        }
    }
}

/// Deterministic fingerprint of the compiled-in benchmark plant pool:
/// names, continuous models (bit-exact), period ranges, and LQG weights.
/// Any pool change invalidates every margin-table artifact.
pub fn pool_fingerprint() -> u64 {
    let pool = plants::benchmark_pool().expect("benchmark pool must construct");
    let mut h = Fnv64::new();
    h.write_u64(pool.len() as u64);
    for bp in &pool {
        h.write_bytes(bp.name.as_bytes());
        h.write_bytes(&[0]);
        h.write_f64(bp.period_range.0);
        h.write_f64(bp.period_range.1);
        for m in [bp.plant.a(), bp.plant.b(), bp.plant.c(), bp.plant.d()] {
            h.write_mat(m);
        }
        for m in [
            &bp.weights.q1,
            &bp.weights.q2,
            &bp.weights.r1,
            &bp.weights.r2,
        ] {
            h.write_mat(m);
        }
    }
    h.0
}

fn series_fingerprint() -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(PERIOD_SERIES.len() as u64);
    for &p in &PERIOD_SERIES {
        h.write_f64(p);
    }
    h.0
}

fn header_line() -> String {
    format!(
        "{MARGIN_ARTIFACT_TAG}|kernel={KERNEL_REVISION}|pool={:016x}|grid={},{},{}|series={:016x}|safety={:016x}",
        pool_fingerprint(),
        GRID_POINTS,
        DENSE_GRID_POINTS,
        CURVE_POINTS,
        series_fingerprint(),
        INTERP_SAFETY.to_bits(),
    )
}

/// Diagnoses a header mismatch field-by-field: the first differing field
/// names the invalidation cause.
fn check_header(line: &str) -> Result<(), StaleReason> {
    let expected = header_line();
    if line == expected {
        return Ok(());
    }
    let got: Vec<&str> = line.split('|').collect();
    let want: Vec<&str> = expected.split('|').collect();
    if got.first() != want.first() {
        return Err(StaleReason::VersionTag);
    }
    if got.len() != want.len() {
        return Err(StaleReason::Malformed(format!(
            "header has {} fields, expected {}",
            got.len(),
            want.len()
        )));
    }
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        if g != w {
            return Err(match i {
                1 => StaleReason::KernelRevision,
                2 => StaleReason::PoolHash,
                3 => StaleReason::GridShape,
                4 => StaleReason::SeriesHash,
                5 => StaleReason::SafetyFactor,
                _ => StaleReason::Malformed(format!("unexpected header field {i}: {g}")),
            });
        }
    }
    unreachable!("some field must differ when the lines differ");
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
    out.push('|');
    out.push_str(&format!("{:016x}", v.to_bits()));
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

/// Line cursor over the artifact's content lines (blanks and `#`
/// comments skipped), annotating every failure with its line number.
struct Cursor<'a> {
    lines: std::iter::Peekable<std::vec::IntoIter<(usize, &'a str)>>,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        let lines: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
            .collect();
        Cursor {
            lines: lines.into_iter().peekable(),
        }
    }

    fn next(&mut self, what: &str) -> Result<(usize, &'a str), StaleReason> {
        self.lines.next().ok_or_else(|| {
            StaleReason::Malformed(format!("unexpected end of file, expected {what}"))
        })
    }
}

fn parse_f64_bits(s: &str, line: usize) -> Result<f64, StaleReason> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|e| StaleReason::Malformed(format!("line {line}: bad f64 bit pattern {s:?}: {e}")))
}

fn parse_usize(s: &str, line: usize) -> Result<usize, StaleReason> {
    s.parse()
        .map_err(|e| StaleReason::Malformed(format!("line {line}: bad count {s:?}: {e}")))
}

fn expect_fields<'a>(
    line: usize,
    text: &'a str,
    tag: &str,
    n: usize,
) -> Result<Vec<&'a str>, StaleReason> {
    let fields: Vec<&str> = text.split('|').collect();
    if fields.len() != n + 1 || fields[0] != tag {
        return Err(StaleReason::Malformed(format!(
            "line {line}: expected `{tag}` record with {n} fields, got {text:?}"
        )));
    }
    Ok(fields[1..].to_vec())
}

/// Loads and validates a margin-table artifact.
///
/// # Errors
///
/// [`StaleReason`] when the file is absent, its header does not match
/// the compiled-in pool/grid/kernel, or its body is corrupt. Callers
/// must recompute in every error case.
pub fn load_margin_artifact(
    path: &Path,
) -> Result<(Vec<PlantMargins>, Vec<MarginInterp>), StaleReason> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(StaleReason::Missing),
        Err(e) => {
            return Err(StaleReason::Malformed(format!(
                "read {}: {e}",
                path.display()
            )))
        }
    };
    let pool = plants::benchmark_pool().expect("benchmark pool must construct");
    let mut cur = Cursor::new(&text);
    let (_, header) = cur.next("header")?;
    check_header(header)?;

    let mut tables = Vec::with_capacity(pool.len());
    for bp in &pool {
        let (ln, line) = cur.next("table record")?;
        let f = expect_fields(ln, line, "table", 2)?;
        if f[0] != bp.name {
            return Err(StaleReason::Malformed(format!(
                "line {ln}: table for {:?}, expected {:?} (pool order)",
                f[0], bp.name
            )));
        }
        let count = parse_usize(f[1], ln)?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let (ln, line) = cur.next("table entry")?;
            let f = expect_fields(ln, line, "e", 3)?;
            entries.push(MarginEntry {
                period: parse_f64_bits(f[0], ln)?,
                a: parse_f64_bits(f[1], ln)?,
                b: parse_f64_bits(f[2], ln)?,
            });
        }
        tables.push(PlantMargins {
            name: bp.name,
            entries,
        });
    }

    let mut interp = Vec::with_capacity(pool.len());
    for bp in &pool {
        let (ln, line) = cur.next("interp record")?;
        let f = expect_fields(ln, line, "interp", 2)?;
        if f[0] != bp.name {
            return Err(StaleReason::Malformed(format!(
                "line {ln}: interpolant for {:?}, expected {:?} (pool order)",
                f[0], bp.name
            )));
        }
        let n_runs = parse_usize(f[1], ln)?;
        let mut runs = Vec::with_capacity(n_runs);
        for _ in 0..n_runs {
            let (ln, line) = cur.next("run record")?;
            let f = expect_fields(ln, line, "run", 3)?;
            let p_lo = parse_f64_bits(f[0], ln)?;
            let p_hi = parse_f64_bits(f[1], ln)?;
            let knots = parse_usize(f[2], ln)?;
            if knots < 2 {
                return Err(StaleReason::Malformed(format!(
                    "line {ln}: run with {knots} knots (need >= 2)"
                )));
            }
            let mut run = InterpSegmentRun {
                p_lo,
                p_hi,
                x: Vec::with_capacity(knots),
                a: Vec::with_capacity(knots),
                b: Vec::with_capacity(knots),
                ta: Vec::with_capacity(knots),
                tb: Vec::with_capacity(knots),
                shrink_b: Vec::with_capacity(knots - 1),
                inflate_a: Vec::with_capacity(knots - 1),
            };
            for _ in 0..knots {
                let (ln, line) = cur.next("knot record")?;
                let f = expect_fields(ln, line, "k", 5)?;
                run.x.push(parse_f64_bits(f[0], ln)?);
                run.a.push(parse_f64_bits(f[1], ln)?);
                run.b.push(parse_f64_bits(f[2], ln)?);
                run.ta.push(parse_f64_bits(f[3], ln)?);
                run.tb.push(parse_f64_bits(f[4], ln)?);
            }
            for _ in 0..knots - 1 {
                let (ln, line) = cur.next("factor record")?;
                let f = expect_fields(ln, line, "f", 2)?;
                run.shrink_b.push(parse_f64_bits(f[0], ln)?);
                run.inflate_a.push(parse_f64_bits(f[1], ln)?);
            }
            runs.push(run);
        }
        interp.push(MarginInterp {
            name: bp.name,
            runs,
        });
    }
    if let Some((ln, line)) = cur.lines.next() {
        return Err(StaleReason::Malformed(format!(
            "line {ln}: trailing content {line:?}"
        )));
    }
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
                StaleReason::Missing => {
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
        check_header(&header_line()).expect("own header must validate");
        let fields: Vec<String> = header_line().split('|').map(String::from).collect();
        let cases = [
            (0, StaleReason::VersionTag),
            (1, StaleReason::KernelRevision),
            (2, StaleReason::PoolHash),
            (3, StaleReason::GridShape),
            (4, StaleReason::SeriesHash),
            (5, StaleReason::SafetyFactor),
        ];
        for (idx, want) in cases {
            let mut f = fields.clone();
            f[idx] = format!("{}x", f[idx]);
            let line = f.join("|");
            assert_eq!(check_header(&line).unwrap_err(), want, "field {idx}");
        }
    }

    #[test]
    fn missing_artifact_is_reported_as_missing() {
        let err = load_margin_artifact(Path::new("/nonexistent/dir/margin_tables.csamt"));
        assert_eq!(err.unwrap_err(), StaleReason::Missing);
    }
}
