//! The one codec behind every fingerprinted on-disk artifact: the
//! margin-table artifact (`csamt1`, [`crate::load_margin_artifact`]),
//! the sweep checkpoint journal (`csacp1`, [`crate::run_sharded_sweep`])
//! and the monitor snapshot (`csamon1`, `csa_monitor::snapshot`). Each format
//! declares only its tag, its header fields and its record layout; the
//! mechanics live here once (DESIGN.md §15):
//!
//! * **Header.** The first content line is `tag|key=value|…`, built by
//!   [`Header`] from everything the file's contents are a function of.
//! * **Stale diagnosis.** [`LineCursor::header`] compares a stored header with
//!   the expected one and returns one [`Stale`] with one rule: a
//!   different tag is `Mismatch("tag")`; a different key sequence (a
//!   field added, dropped, renamed or reordered) is `Malformed`;
//!   otherwise the first key whose value differs is `Mismatch(key)`.
//! * **Reading.** [`read_artifact`] maps an absent file to
//!   [`Stale::Missing`] and any other I/O error to `Malformed`;
//!   [`LineCursor`] walks the content lines (blank and `#` lines
//!   skipped) and puts the line number in every `Malformed`.
//! * **Values.** [`hex_f64`]/[`parse_hex_f64`] serialize an `f64` as
//!   its `{:016x}` IEEE-754 bit pattern, bit for bit (NaN payloads,
//!   `-0.0`, subnormals, `±inf`); [`hex_u64`]/[`parse_hex_u64`] do the
//!   same for seeds and fingerprints.
//! * **Hashing.** [`Fnv64`], the workspace's FNV-1a 64-bit hasher.
//!
//! A caller must treat every [`Stale`] as "recompute": a stale or
//! corrupt artifact is never silently reused.

use std::fmt::{self, Write as _};
use std::num::ParseIntError;
use std::path::Path;

/// Why an artifact cannot back the current run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stale {
    /// No file exists at the path (first run; not an error).
    Missing,
    /// The header's tag (`"tag"`) or the named header key holds a
    /// different value than the running configuration expects.
    Mismatch(String),
    /// The file exists but is not a well-formed artifact (different
    /// header layout, corrupt body, or an I/O error other than
    /// absence); carries a diagnostic with the line number.
    Malformed(String),
}

impl fmt::Display for Stale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stale::Missing => f.write_str("no such file"),
            Stale::Mismatch(key) => write!(f, "fingerprint mismatch on {key}"),
            Stale::Malformed(msg) => write!(f, "malformed: {msg}"),
        }
    }
}

/// Builder of a `tag|key=value|…` fingerprint header line.
#[derive(Debug, Clone)]
pub struct Header(String);

impl Header {
    /// Starts a header with the format's version tag.
    pub fn new(tag: &str) -> Header {
        Header(tag.to_string())
    }

    /// Appends one `|key=value` field.
    pub fn field(mut self, key: &str, value: impl fmt::Display) -> Header {
        let _ = write!(self.0, "|{key}={value}");
        self
    }

    /// The finished header line (no trailing newline).
    pub fn finish(self) -> String {
        self.0
    }
}

/// Diagnoses a stored header line against the expected one (see the
/// module docs for the rule).
fn check_header(expected: &str, got: Line<'_>) -> Result<(), Stale> {
    if got.text == expected {
        return Ok(());
    }
    let mut want = expected.split('|');
    let mut have = got.text.split('|');
    if want.next() != have.next() {
        return Err(Stale::Mismatch("tag".to_string()));
    }
    // A field without `=` has no key, so it never matches a declared one.
    let want: Vec<Option<(&str, &str)>> = want.map(|f| f.split_once('=')).collect();
    let have: Vec<Option<(&str, &str)>> = have.map(|f| f.split_once('=')).collect();
    let want_keys: Vec<Option<&str>> = want.iter().map(|f| f.map(|kv| kv.0)).collect();
    let have_keys: Vec<Option<&str>> = have.iter().map(|f| f.map(|kv| kv.0)).collect();
    if want_keys != have_keys {
        return Err(got.malformed(format_args!(
            "header keys {have_keys:?}, expected {want_keys:?}"
        )));
    }
    match want.iter().zip(&have).find(|(w, h)| w != h) {
        Some((Some((key, _)), _)) => Err(Stale::Mismatch(key.to_string())),
        // Not reached (equal tag, keys and values make equal lines), but
        // a header that was not proven equal is never accepted.
        _ => Err(got.malformed(format_args!("header layout {:?}", got.text))),
    }
}

/// Reads a whole artifact file.
///
/// # Errors
///
/// [`Stale::Missing`] when the file does not exist, `Malformed` for any
/// other I/O error (including invalid UTF-8).
pub fn read_artifact(path: &Path) -> Result<String, Stale> {
    std::fs::read_to_string(path).map_err(|e| match e.kind() {
        std::io::ErrorKind::NotFound => Stale::Missing,
        _ => Stale::Malformed(format!("read {}: {e}", path.display())),
    })
}

/// One content line of an artifact, with its 1-based line number.
#[derive(Debug, Clone, Copy)]
pub struct Line<'a> {
    /// 1-based line number in the file.
    pub no: usize,
    /// The trimmed line text.
    pub text: &'a str,
}

impl<'a> Line<'a> {
    /// A `Malformed` diagnostic located at this line.
    pub fn malformed(&self, msg: impl fmt::Display) -> Stale {
        Stale::Malformed(format!("line {}: {msg}", self.no))
    }

    /// The line's `|`-separated fields after its record tag, checking
    /// the tag and that exactly `n` fields follow it.
    ///
    /// # Errors
    ///
    /// `Malformed` on a different tag or field count.
    pub fn record(&self, tag: &str, n: usize) -> Result<Vec<&'a str>, Stale> {
        let mut fields = self.text.split('|');
        let rest: Vec<&str> = match fields.next() {
            Some(t) if t == tag => fields.collect(),
            _ => Vec::new(),
        };
        if rest.len() != n {
            return Err(self.malformed(format_args!(
                "expected `{tag}` record with {n} fields, got {:?}",
                self.text
            )));
        }
        Ok(rest)
    }

    /// Parses a decimal integer field named `what`.
    ///
    /// # Errors
    ///
    /// `Malformed` naming the field and the line.
    pub fn int<T>(&self, s: &str, what: &str) -> Result<T, Stale>
    where
        T: std::str::FromStr,
        T::Err: fmt::Display,
    {
        s.parse()
            .map_err(|e| self.malformed(format_args!("bad {what} {s:?}: {e}")))
    }

    /// Parses a [`hex_f64`] field named `what`.
    ///
    /// # Errors
    ///
    /// `Malformed` naming the field and the line.
    pub fn f64(&self, s: &str, what: &str) -> Result<f64, Stale> {
        parse_hex_f64(s).map_err(|e| self.malformed(format_args!("bad {what} {s:?}: {e}")))
    }

    /// Parses a [`hex_u64`] field named `what`.
    ///
    /// # Errors
    ///
    /// `Malformed` naming the field and the line.
    pub fn hex(&self, s: &str, what: &str) -> Result<u64, Stale> {
        parse_hex_u64(s).map_err(|e| self.malformed(format_args!("bad {what} {s:?}: {e}")))
    }
}

/// Cursor over an artifact's content lines: blank lines and `#`
/// comments are skipped, every line is trimmed, and every failure
/// carries a line number.
#[derive(Debug)]
pub struct LineCursor<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    /// Lines not yet consumed (an upper bound on the records left).
    left: usize,
    /// Number of the last line of the text (for end-of-file errors).
    last: usize,
}

impl<'a> LineCursor<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> LineCursor<'a> {
        let total = text.lines().count();
        LineCursor {
            lines: text.lines().enumerate(),
            left: total,
            last: total,
        }
    }

    /// The next content line, or `None` at the end of the text.
    pub fn next_line(&mut self) -> Option<Line<'a>> {
        for (i, raw) in self.lines.by_ref() {
            self.left -= 1;
            let text = raw.trim();
            if !text.is_empty() && !text.starts_with('#') {
                return Some(Line { no: i + 1, text });
            }
        }
        None
    }

    /// The next content line, expected to hold `what`.
    ///
    /// # Errors
    ///
    /// `Malformed` at the end of the text.
    pub fn next(&mut self, what: &str) -> Result<Line<'a>, Stale> {
        let last = self.last;
        self.next_line().ok_or_else(|| {
            Stale::Malformed(format!(
                "line {last}: unexpected end of file, expected {what}"
            ))
        })
    }

    /// Reads the header line and diagnoses it against `expected`.
    ///
    /// # Errors
    ///
    /// `Mismatch("tag")` on a different version tag, `Malformed` on a
    /// different key sequence (or an empty file), otherwise
    /// `Mismatch(key)` naming the first key whose value differs.
    pub fn header(&mut self, expected: &str) -> Result<(), Stale> {
        check_header(expected, self.next("header")?)
    }

    /// Upper bound on the content lines left: the bound for any
    /// preallocation sized by a count read from the file, so a corrupt
    /// count can never allocate more than the file could fill.
    pub fn remaining(&self) -> usize {
        self.left
    }

    /// Checks that no content line is left.
    ///
    /// # Errors
    ///
    /// `Malformed` naming the first trailing line.
    pub fn finish(mut self) -> Result<(), Stale> {
        match self.next_line() {
            Some(line) => Err(line.malformed(format_args!("trailing content {:?}", line.text))),
            None => Ok(()),
        }
    }
}

/// A `u64` displayed as exactly 16 lowercase hex digits (`{:016x}`);
/// built by [`hex_u64`] and [`hex_f64`], written without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hex(u64);

impl fmt::Display for Hex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// `v`'s IEEE-754 bit pattern as 16 lowercase hex digits.
pub fn hex_f64(v: f64) -> Hex {
    Hex(v.to_bits())
}

/// `v` as 16 lowercase hex digits.
pub fn hex_u64(v: u64) -> Hex {
    Hex(v)
}

/// Inverse of [`hex_f64`], bit for bit.
///
/// # Errors
///
/// The integer parse error of a non-hex or over-long field.
pub fn parse_hex_f64(s: &str) -> Result<f64, ParseIntError> {
    parse_hex_u64(s).map(f64::from_bits)
}

/// Inverse of [`hex_u64`].
///
/// # Errors
///
/// The integer parse error of a non-hex or over-long field.
pub fn parse_hex_u64(s: &str) -> Result<u64, ParseIntError> {
    u64::from_str_radix(s, 16)
}

/// Streaming FNV-1a 64-bit hasher: deterministic across platforms and
/// processes, unlike `std`'s `DefaultHasher`. Backs the artifact
/// fingerprints, the monitor's memo-bank keys and the test digests.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    /// A hasher at the FNV-1a offset basis.
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Feeds `bytes`.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Feeds `v` as 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds `v`'s bit pattern as 8 little-endian bytes.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn diagnose(expected: &str, got: &str) -> Result<(), Stale> {
        LineCursor::new(got).header(expected)
    }

    #[test]
    fn header_builder_joins_tag_and_fields() {
        let h = Header::new("csaxx1")
            .field("n", 4)
            .field("z", hex_f64(1.0))
            .finish();
        assert_eq!(h, "csaxx1|n=4|z=3ff0000000000000");
    }

    #[test]
    fn diagnosis_rule_on_layout_changes() {
        let want = "csaxx1|a=1|b=2|c=3";
        assert_eq!(diagnose(want, want), Ok(()));
        for (got, expect) in [
            ("csaxx2|a=1|b=2|c=3", Stale::Mismatch("tag".into())),
            ("csaxx2", Stale::Mismatch("tag".into())),
            ("csaxx1|a=1|b=9|c=4", Stale::Mismatch("b".into())),
        ] {
            assert_eq!(diagnose(want, got), Err(expect), "{got}");
        }
        for got in [
            "csaxx1|a=1|c=3",
            "csaxx1|a=1|b=2|c=3|d=4",
            "csaxx1|a=1|c=3|b=2",
            "csaxx1|a=1|bb=2|c=3",
            "csaxx1|a=1|b|c=3",
            "",
        ] {
            let err = diagnose(want, got).unwrap_err();
            assert!(matches!(err, Stale::Malformed(_)), "{got:?}: {err:?}");
        }
    }

    #[test]
    fn cursor_skips_comments_and_numbers_every_failure() {
        let text = "# comment\n\n  h|k=v  \nr|1|x\n# tail\nr|2\n";
        let mut cur = LineCursor::new(text);
        cur.header("h|k=v").unwrap();
        let line = cur.next("record").unwrap();
        assert_eq!((line.no, line.text), (4, "r|1|x"));
        assert_eq!(line.record("r", 2).unwrap(), ["1", "x"]);
        let err = line.int::<u64>("x", "count").unwrap_err();
        assert_eq!(
            err,
            Stale::Malformed("line 4: bad count \"x\": invalid digit found in string".to_string())
        );
        let line = cur.next("record").unwrap();
        assert_eq!(line.no, 6);
        assert!(
            matches!(line.record("r", 2), Err(Stale::Malformed(m)) if m.starts_with("line 6:"))
        );
        assert!(
            matches!(line.f64("zz", "a"), Err(Stale::Malformed(m)) if m.starts_with("line 6: bad a"))
        );
        assert_eq!(cur.remaining(), 0);
        let Err(Stale::Malformed(m)) = cur.next("more") else {
            panic!("end of file must be malformed");
        };
        assert_eq!(m, "line 6: unexpected end of file, expected more");

        let mut cur = LineCursor::new("h\nx\n");
        cur.next("header").unwrap();
        assert!(
            matches!(cur.finish(), Err(Stale::Malformed(m)) if m.starts_with("line 2: trailing"))
        );
    }

    #[test]
    fn reading_maps_absence_to_missing() {
        let dir = std::env::temp_dir().join(format!("csa_artifact_read_{}", std::process::id()));
        assert_eq!(read_artifact(&dir.join("absent")), Err(Stale::Missing));
        std::fs::create_dir_all(&dir).unwrap();
        // A directory is present but unreadable as a file.
        assert!(matches!(read_artifact(&dir), Err(Stale::Malformed(_))));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn f64_codec_keeps_special_values_bit_for_bit() {
        for v in [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 3.0,
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0xfff4_0000_dead_beef),
        ] {
            let s = hex_f64(v).to_string();
            assert_eq!(s.len(), 16);
            assert_eq!(parse_hex_f64(&s).unwrap().to_bits(), v.to_bits(), "{s}");
        }
        assert_eq!(hex_u64(0xab).to_string(), "00000000000000ab");
        assert!(parse_hex_u64("1_0").is_err() && parse_hex_u64("").is_err());
        assert!(parse_hex_u64("10000000000000000").is_err());
    }

    #[test]
    fn fnv64_matches_the_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        let digest = |s: &str| {
            let mut h = Fnv64::default();
            h.write_bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
    }

    proptest! {
        /// Every bit pattern — NaN payloads, `-0.0`, subnormals, `±inf`
        /// included — survives the codec. `class` forces the exponent to
        /// all ones (inf/NaN) or all zeros (zero/subnormal) for half the
        /// cases, which uniform bits would almost never reach.
        #[test]
        fn f64_codec_round_trips_every_bit_pattern(bits in any::<u64>(), class in 0u8..4) {
            const EXP: u64 = 0x7ff0_0000_0000_0000;
            let bits = match class {
                0 => bits | EXP,
                1 => bits & !EXP,
                _ => bits,
            };
            let s = hex_f64(f64::from_bits(bits)).to_string();
            prop_assert_eq!(parse_hex_f64(&s).unwrap().to_bits(), bits);
            prop_assert_eq!(parse_hex_u64(&hex_u64(bits).to_string()).unwrap(), bits);
        }
    }
}
