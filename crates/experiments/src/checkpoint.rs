//! Crash-safe checkpoint journal for the sharded sweep orchestrator.
//!
//! A large sweep (DESIGN.md §11) is split into deterministic shards of
//! consecutive instance indices; as each shard completes, its aggregate
//! counter row, its (bounded) witness sample, and its quarantined
//! instances are appended to a plain-text *journal* under the checkpoint
//! directory. The journal is always rewritten through
//! [`crate::write_atomic`] (write `.tmp`, fsync, rename), so a crash at
//! any instant — including SIGKILL mid-write — leaves either the
//! previous complete journal or the new complete journal on disk, never
//! a torn file.
//!
//! The first content line is a *fingerprint header* assembled by the
//! orchestrator from everything the shard results are a function of:
//! sweep name, base seed, instance counts, column layout, shard size,
//! reservoir capacity, instance timeout, the margin-kernel revision and
//! plant-pool fingerprint, and the sweep-specific configuration
//! (profile, search mode, budget). A resume validates it with the
//! shared artifact codec ([`crate::artifact`], DESIGN.md §15); any
//! mismatch is reported as a [`Stale`] naming the field and the sweep
//! recomputes from scratch with a warning — a stale or corrupt journal
//! is **never** silently merged.
//!
//! Record grammar (after the header; blank lines and `#` comments are
//! skipped):
//!
//! ```text
//! s|<n>|<start>|<len>|<c0,c1,...>|<witness count>|<quarantine count>
//! w|<witness line in the csaw1 format of witness.rs>
//! q|<index>|<rng seed as 16-hex-digit>|panic|<sanitized message>
//! q|<index>|<rng seed as 16-hex-digit>|timeout|<elapsed ms>
//! ```

use crate::artifact::{hex_u64, read_artifact, LineCursor, Stale};
use crate::report::{write_atomic, RESULTS_DIR};
use crate::witness::Witness;
use std::fmt;
use std::path::{Path, PathBuf};

/// Version tag of the checkpoint-journal format; first header field.
pub const CHECKPOINT_TAG: &str = "csacp1";

/// File-name extension of journals inside the checkpoint directory.
const JOURNAL_EXT: &str = "csacp";

/// Why an instance was quarantined instead of aggregated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The worker panicked while evaluating the instance; carries the
    /// sanitized panic message.
    Panic(String),
    /// Evaluation finished but exceeded the configured per-instance
    /// timeout; carries the measured wall-clock milliseconds.
    Timeout {
        /// Measured evaluation time in milliseconds.
        elapsed_ms: u64,
    },
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineReason::Panic(msg) => write!(f, "panic: {msg}"),
            QuarantineReason::Timeout { elapsed_ms } => {
                write!(f, "timeout: evaluation took {elapsed_ms} ms")
            }
        }
    }
}

/// One quarantined instance: its sweep coordinates, the exact RNG seed
/// ([`crate::instance_seed`]`(seed, n, index)`) to replay it offline,
/// and the reason it was excluded from the aggregates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedInstance {
    /// Task count of the sweep row.
    pub n: usize,
    /// Instance index within the row.
    pub index: usize,
    /// The instance's derived RNG seed — `StdRng::seed_from_u64(seed)`
    /// regenerates the exact benchmark for offline replay.
    pub rng_seed: u64,
    /// Why the instance was quarantined.
    pub reason: QuarantineReason,
}

/// Replaces journal-hostile characters (`|`, newlines, controls) and
/// truncates, so a panic message can ride in one journal field.
pub(crate) fn sanitize_message(msg: &str) -> String {
    let mut out: String = msg
        .chars()
        .map(|c| if c == '|' || c.is_control() { ' ' } else { c })
        .take(160)
        .collect();
    if msg.chars().count() > 160 {
        out.push('…');
    }
    out
}

/// One completed shard: the half-open instance range `start..start+len`
/// of the `n`-task row, its aggregate counters (one per sweep column),
/// its witness sample, and its quarantined instances.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRecord {
    /// Task count of the sweep row this shard belongs to.
    pub n: usize,
    /// First instance index of the shard.
    pub start: usize,
    /// Number of instances in the shard.
    pub len: usize,
    /// Aggregate counters in the sweep's column order.
    pub counts: Vec<u64>,
    /// Witness sample (bounded by the orchestrator's reservoir).
    pub witnesses: Vec<Witness>,
    /// Instances excluded from `counts` (each also absent from
    /// `witnesses`).
    pub quarantined: Vec<QuarantinedInstance>,
}

impl ShardRecord {
    fn push_lines(&self, out: &mut String) {
        use std::fmt::Write as _;
        let counts: Vec<String> = self.counts.iter().map(u64::to_string).collect();
        let _ = writeln!(
            out,
            "s|{}|{}|{}|{}|{}|{}",
            self.n,
            self.start,
            self.len,
            counts.join(","),
            self.witnesses.len(),
            self.quarantined.len(),
        );
        for w in &self.witnesses {
            let _ = writeln!(out, "w|{}", w.to_line());
        }
        for q in &self.quarantined {
            match &q.reason {
                QuarantineReason::Panic(msg) => {
                    let _ = writeln!(
                        out,
                        "q|{}|{}|panic|{}",
                        q.index,
                        hex_u64(q.rng_seed),
                        sanitize_message(msg)
                    );
                }
                QuarantineReason::Timeout { elapsed_ms } => {
                    let _ = writeln!(
                        out,
                        "q|{}|{}|timeout|{elapsed_ms}",
                        q.index,
                        hex_u64(q.rng_seed)
                    );
                }
            }
        }
    }
}

/// Journal path of one sweep inside a checkpoint directory.
pub fn journal_path(dir: &Path, sweep: &str) -> PathBuf {
    dir.join(format!("{sweep}.{JOURNAL_EXT}"))
}

/// Atomically writes the whole journal: header plus every completed
/// shard. Called after each freshly computed shard; the rewrite is what
/// keeps every published journal a complete, self-consistent file.
///
/// # Errors
///
/// Propagates filesystem errors.
pub(crate) fn save_journal(
    path: &Path,
    header: &str,
    records: &[ShardRecord],
) -> std::io::Result<()> {
    let mut out = String::with_capacity(256 + records.len() * 64);
    out.push_str("# Sweep checkpoint journal: one `s` record per completed shard with its\n");
    out.push_str("# witness sample (`w`) and quarantined instances (`q`). Rewritten\n");
    out.push_str("# atomically after every shard; stale headers are recomputed, never merged.\n");
    out.push_str(header);
    out.push('\n');
    for r in records {
        r.push_lines(&mut out);
    }
    write_atomic(path, &out)
}

/// Loads a checkpoint journal and validates it against the expected
/// fingerprint header and column count.
///
/// # Errors
///
/// [`Stale`] when the file is absent, fingerprints differ, or the body
/// is corrupt. Callers must recompute every shard in every error case
/// (warn-and-recompute; never merge a stale journal).
pub(crate) fn load_journal(
    path: &Path,
    expected_header: &str,
    columns: usize,
) -> Result<Vec<ShardRecord>, Stale> {
    let text = read_artifact(path)?;
    let mut cur = LineCursor::new(&text);
    cur.header(expected_header)?;

    let mut records = Vec::new();
    while let Some(line) = cur.next_line() {
        let f = line.record("s", 6)?;
        let counts: Vec<u64> = f[3]
            .split(',')
            .map(|c| line.int(c, "counter"))
            .collect::<Result<_, _>>()?;
        if counts.len() != columns {
            return Err(line.malformed(format_args!(
                "{} counters, sweep has {columns} columns",
                counts.len()
            )));
        }
        let mut record = ShardRecord {
            n: line.int(f[0], "n")?,
            start: line.int(f[1], "start")?,
            len: line.int(f[2], "len")?,
            counts,
            witnesses: Vec::new(),
            quarantined: Vec::new(),
        };
        for _ in 0..line.int::<usize>(f[4], "witness count")? {
            let line = cur.next("witness")?;
            let Some(rest) = line.text.strip_prefix("w|") else {
                return Err(line.malformed(format_args!(
                    "expected `w` witness record, got {:?}",
                    line.text
                )));
            };
            record
                .witnesses
                .push(Witness::parse(rest).map_err(|e| line.malformed(e))?);
        }
        for _ in 0..line.int::<usize>(f[5], "quarantine count")? {
            let line = cur.next("quarantine record")?;
            let fields: Vec<&str> = line.text.splitn(5, '|').collect();
            let ["q", index, seed, kind, detail] = fields.as_slice() else {
                return Err(line.malformed(format_args!(
                    "expected `q` quarantine record, got {:?}",
                    line.text
                )));
            };
            let reason = match *kind {
                "panic" => QuarantineReason::Panic(detail.to_string()),
                "timeout" => QuarantineReason::Timeout {
                    elapsed_ms: line.int(detail, "timeout ms")?,
                },
                other => {
                    return Err(line.malformed(format_args!("unknown quarantine kind {other:?}")))
                }
            };
            record.quarantined.push(QuarantinedInstance {
                n: record.n,
                index: line.int(index, "index")?,
                rng_seed: line.hex(seed, "rng seed")?,
                reason,
            });
        }
        records.push(record);
    }
    Ok(records)
}

/// Writes quarantined instances to `results/<file_name>` for offline
/// replay (one line each: `csaq1|n|index|rng_seed_hex|reason|detail`)
/// and returns the full path. Atomic like every artifact writer.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_quarantine_file(
    file_name: &str,
    quarantined: &[QuarantinedInstance],
) -> std::io::Result<PathBuf> {
    use std::fmt::Write as _;
    let path = Path::new(RESULTS_DIR).join(file_name);
    let mut content = format!(
        "# {} quarantined instance(s); replay with StdRng::seed_from_u64(0x<rng_seed>)\n",
        quarantined.len()
    );
    for q in quarantined {
        let (kind, detail) = match &q.reason {
            QuarantineReason::Panic(msg) => ("panic", sanitize_message(msg)),
            QuarantineReason::Timeout { elapsed_ms } => ("timeout", elapsed_ms.to_string()),
        };
        let _ = writeln!(
            content,
            "csaq1|{}|{}|{}|{kind}|{detail}",
            q.n,
            q.index,
            hex_u64(q.rng_seed)
        );
    }
    write_atomic(&path, &content)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchgen::{generate_benchmark, BenchmarkConfig, PeriodModel};
    use crate::parallel::instance_seed;
    use crate::witness::WitnessKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_records() -> Vec<ShardRecord> {
        let (seed, n) = (2017u64, 4usize);
        let mut rng = StdRng::seed_from_u64(instance_seed(seed, n, 3));
        let tasks = generate_benchmark(
            &BenchmarkConfig::with_model(n, PeriodModel::Continuous),
            &mut rng,
        );
        vec![
            ShardRecord {
                n,
                start: 0,
                len: 8,
                counts: vec![5, 0, 3],
                witnesses: vec![Witness {
                    kind: WitnessKind::CertificateLie,
                    profile: PeriodModel::Continuous,
                    seed,
                    n,
                    index: 3,
                    tasks,
                }],
                quarantined: vec![
                    QuarantinedInstance {
                        n,
                        index: 5,
                        rng_seed: instance_seed(seed, n, 5),
                        reason: QuarantineReason::Panic("boom at 5".to_string()),
                    },
                    QuarantinedInstance {
                        n,
                        index: 7,
                        rng_seed: instance_seed(seed, n, 7),
                        reason: QuarantineReason::Timeout { elapsed_ms: 1234 },
                    },
                ],
            },
            ShardRecord {
                n,
                start: 8,
                len: 8,
                counts: vec![8, 1, 0],
                witnesses: Vec::new(),
                quarantined: Vec::new(),
            },
        ]
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("csa_ckpt_test_{}_{name}", std::process::id()))
    }

    #[test]
    fn journal_round_trips_bit_exactly() {
        let header = "csacp1|sweep=test|seed=2017|cols=a,b,c";
        let records = sample_records();
        let path = temp_path("roundtrip.csacp");
        save_journal(&path, header, &records).unwrap();
        let loaded = load_journal(&path, header, 3).unwrap();
        assert_eq!(loaded, records);
        std::fs::remove_file(path).unwrap();
    }

    /// FNV-1a digest of the journal bytes [`save_journal`] wrote for
    /// [`sample_records`] before the artifact codec was shared
    /// (DESIGN.md §15); resumes in the field read these files.
    const JOURNAL_DIGEST: u64 = 0x115c_7d5e_be31_e13b;

    #[test]
    fn journal_bytes_are_pinned() {
        let path = temp_path("pinned.csacp");
        save_journal(
            &path,
            "csacp1|sweep=test|seed=2017|cols=a,b,c",
            &sample_records(),
        )
        .unwrap();
        let mut h = crate::artifact::Fnv64::default();
        h.write_bytes(&std::fs::read(&path).unwrap());
        std::fs::remove_file(path).unwrap();
        assert_eq!(
            h.finish(),
            JOURNAL_DIGEST,
            "journal bytes drifted: {:#018x}",
            h.finish()
        );
    }

    #[test]
    fn header_mismatch_names_the_field() {
        let path = temp_path("mismatch.csacp");
        save_journal(&path, "csacp1|sweep=test|seed=2017|cols=a,b,c", &[]).unwrap();
        let err = load_journal(&path, "csacp1|sweep=test|seed=2018|cols=a,b,c", 3).unwrap_err();
        assert_eq!(err, Stale::Mismatch("seed".to_string()));
        let err = load_journal(&path, "csacpX|sweep=test|seed=2017|cols=a,b,c", 3).unwrap_err();
        assert_eq!(err, Stale::Mismatch("tag".to_string()));
        let err =
            load_journal(&path, "csacp1|sweep=test|seed=2017|cols=a,b,c|extra=1", 3).unwrap_err();
        assert!(matches!(err, Stale::Malformed(_)), "{err:?}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn missing_and_corrupt_journals_are_stale() {
        let missing = load_journal(Path::new("/nonexistent/x.csacp"), "h", 1);
        assert_eq!(missing.unwrap_err(), Stale::Missing);

        let header = "csacp1|sweep=test|cols=a";
        let path = temp_path("corrupt.csacp");
        for (body, needle) in [
            ("s|4|0|8|1,2|0|0\n", "counters"),
            ("s|4|0|8|1|1|0\n", "end of file"),
            ("s|4|0|8|1|0|1\nq|5|zz|panic|x\n", "bad rng seed"),
            (
                "s|4|0|8|1|0|1\nq|5|00000000000000aa|soup|x\n",
                "unknown quarantine kind",
            ),
            ("w|csaw1|whatever\n", "expected `s`"),
        ] {
            std::fs::write(&path, format!("{header}\n{body}")).unwrap();
            let err = load_journal(&path, header, 1).unwrap_err();
            let Stale::Malformed(msg) = &err else {
                panic!("{body:?}: expected Malformed, got {err:?}");
            };
            assert!(msg.contains(needle), "{body:?}: {msg:?} missing {needle:?}");
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn messages_are_sanitized_for_the_journal() {
        assert_eq!(sanitize_message("a|b\nc"), "a b c");
        let long = "x".repeat(400);
        let s = sanitize_message(&long);
        assert!(s.chars().count() <= 161 && s.ends_with('…'));
    }

    #[test]
    fn quarantine_file_lists_replay_seeds() {
        let records = sample_records();
        let path = write_quarantine_file("test_quarantine_checkpoint.txt", &records[0].quarantined)
            .unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let seed5 = instance_seed(2017, 4, 5);
        assert!(content.contains(&format!("csaq1|4|5|{seed5:016x}|panic|boom at 5")));
        assert!(content.contains("timeout|1234"));
        std::fs::remove_file(path).unwrap();
    }
}
