//! Crash-safe persistence of the monitor's learned state.
//!
//! The snapshot (`csamon1`) freezes exactly the state that must survive
//! a restart for the response stream to continue bit-identically: the
//! baseline lifecycle (raw building samples or locked statistics), the
//! drift window, the per-class event machine, and the stream counters.
//! It deliberately **excludes** the warm memo bank and the
//! logical/computed check telemetry — warmth affects latency only, so
//! a resumed service converges to the same bytes with a cold bank.
//!
//! The fingerprint header pins every configuration knob that *does*
//! shape the stream (search mode, budget, lock thresholds, event
//! thresholds); `threads`, `batch_window` and `memo_tables` are omitted
//! because the determinism contract makes them irrelevant. Header,
//! stale diagnosis and value codecs are the shared artifact codec
//! (`csa_experiments::artifact`, DESIGN.md §15). Writes go
//! through `write_atomic` (tmp + rename), so a kill mid-snapshot leaves
//! either the old file or the new one, never a torn state — the
//! `service_faults` suite drives this with injected crashes.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};

use csa_experiments::artifact::{hex_f64, read_artifact, Header, LineCursor, Stale};
use csa_experiments::write_atomic;

use crate::baseline::{Baseline, BaselineState, CellStats, Lifecycle, LockedCell};
use crate::engine::{EventState, MonitorConfig, MonitorEngine};
use crate::request::Metric;

/// Magic tag of the snapshot format.
pub const SNAPSHOT_TAG: &str = "csamon1";

/// File name of the snapshot inside a `--snapshot-dir`.
pub const SNAPSHOT_FILE: &str = "monitor.csamon";

/// Path of the snapshot file inside `dir`.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

fn header(config: &MonitorConfig) -> String {
    Header::new(SNAPSHOT_TAG)
        .field("search", config.search.mode.name())
        .field("budget", config.search.budget)
        .field("min_samples", config.min_samples)
        .field("min_coverage", config.min_coverage)
        .field("z", hex_f64(config.z_threshold))
        .field("persistence", config.persistence)
        .field("cooldown", config.cooldown)
        .field("drift_window", config.drift_window)
        .field("drift_threshold", hex_f64(config.drift_threshold))
        .finish()
}

/// Serializes the engine's durable state as a `csamon1` document.
pub fn snapshot_string(engine: &MonitorEngine) -> String {
    let mut out = String::new();
    out.push_str(&header(&engine.config));
    out.push('\n');
    out.push_str(&format!(
        "m|{}|{}|{}|{}\n",
        engine.baseline.lifecycle().name(),
        engine.processed,
        engine.events_emitted,
        engine.quarantined
    ));
    match &engine.baseline.state {
        BaselineState::Building {
            cells,
            seen,
            truncated,
        } => {
            out.push_str(&format!("t|{seen}|{truncated}\n"));
            for ((n, profile), samples) in cells {
                let body = samples
                    .iter()
                    .map(|[s, ns]| format!("{}:{}", hex_f64(*s), hex_f64(*ns)))
                    .collect::<Vec<_>>()
                    .join(",");
                out.push_str(&format!("b|{n}|{profile}|{body}\n"));
            }
        }
        BaselineState::Locked {
            cells,
            truncation_rate,
            samples,
        } => {
            out.push_str(&format!("T|{}|{samples}\n", hex_f64(*truncation_rate)));
            for ((n, profile), cell) in cells {
                let s = cell.stats[Metric::Slack.index()];
                let ns = cell.stats[Metric::NormSlack.index()];
                out.push_str(&format!(
                    "L|{n}|{profile}|{}|{}|{}|{}|{}\n",
                    s.count,
                    hex_f64(s.mean),
                    hex_f64(s.std),
                    hex_f64(ns.mean),
                    hex_f64(ns.std),
                ));
            }
        }
    }
    let window: String = engine
        .window
        .iter()
        .map(|&t| if t { '1' } else { '0' })
        .collect();
    out.push_str(&format!("w|{window}\n"));
    for (class, state) in &engine.events_state {
        let last = match state.last_fired {
            Some(seq) => format!("{seq}"),
            None => "-".to_string(),
        };
        out.push_str(&format!("e|{class}|{}|{last}\n", state.streak));
    }
    out
}

/// Atomically writes the engine's snapshot into `dir`.
pub fn save(engine: &MonitorEngine, dir: &Path) -> std::io::Result<()> {
    write_atomic(&snapshot_path(dir), &snapshot_string(engine))
}

/// Restores an engine from snapshot text, verifying the configuration
/// fingerprint field by field (first mismatch is named).
pub fn restore(config: MonitorConfig, text: &str) -> Result<MonitorEngine, Stale> {
    let mut cur = LineCursor::new(text);
    cur.header(&header(&config))?;

    let meta = cur.next("state line")?;
    let f = meta.record("m", 4)?;
    let lifecycle = Lifecycle::parse(f[0])
        .ok_or_else(|| meta.malformed(format_args!("bad lifecycle {:?}", f[0])))?;
    let mut engine = MonitorEngine::new(config);
    engine.processed = meta.int(f[1], "processed")?;
    engine.events_emitted = meta.int(f[2], "events_emitted")?;
    engine.quarantined = meta.int(f[3], "quarantined")?;

    let mut building_cells: BTreeMap<(usize, String), Vec<[f64; 2]>> = BTreeMap::new();
    let mut locked_cells: BTreeMap<(usize, String), LockedCell> = BTreeMap::new();
    let mut totals: Option<(u64, u64)> = None;
    let mut locked_totals: Option<(f64, u64)> = None;
    let mut window = VecDeque::new();
    let mut events_state = BTreeMap::new();

    while let Some(line) = cur.next_line() {
        let fields: Vec<&str> = line.text.split('|').collect();
        match (fields[0], fields.len()) {
            ("t", 3) => {
                totals = Some((
                    line.int(fields[1], "seen")?,
                    line.int(fields[2], "truncated")?,
                ));
            }
            ("T", 3) => {
                locked_totals = Some((
                    line.f64(fields[1], "truncation_rate")?,
                    line.int(fields[2], "samples")?,
                ));
            }
            ("b", 4) => {
                let n = line.int(fields[1], "cell n")?;
                let mut samples = Vec::new();
                if !fields[3].is_empty() {
                    for pair in fields[3].split(',') {
                        let (s, ns) = pair
                            .split_once(':')
                            .ok_or_else(|| line.malformed("bad sample pair"))?;
                        samples.push([
                            line.f64(s, "sample slack")?,
                            line.f64(ns, "sample norm-slack")?,
                        ]);
                    }
                }
                building_cells.insert((n, fields[2].to_string()), samples);
            }
            ("L", 8) => {
                let n = line.int(fields[1], "cell n")?;
                let count = line.int(fields[3], "cell count")?;
                let cell = LockedCell {
                    stats: [
                        CellStats {
                            count,
                            mean: line.f64(fields[4], "slack mean")?,
                            std: line.f64(fields[5], "slack std")?,
                        },
                        CellStats {
                            count,
                            mean: line.f64(fields[6], "norm-slack mean")?,
                            std: line.f64(fields[7], "norm-slack std")?,
                        },
                    ],
                };
                locked_cells.insert((n, fields[2].to_string()), cell);
            }
            ("w", 2) => {
                for c in fields[1].chars() {
                    match c {
                        '0' => window.push_back(false),
                        '1' => window.push_back(true),
                        _ => return Err(line.malformed("bad drift-window bit")),
                    }
                }
            }
            ("e", 4) => {
                let last_fired = if fields[3] == "-" {
                    None
                } else {
                    Some(line.int(fields[3], "last_fired")?)
                };
                events_state.insert(
                    fields[1].to_string(),
                    EventState {
                        streak: line.int(fields[2], "streak")?,
                        last_fired,
                    },
                );
            }
            (tag, _) => {
                return Err(line.malformed(format_args!("unknown line tag {tag:?}")));
            }
        }
    }

    let min_samples = engine.config.min_samples;
    let min_coverage = engine.config.min_coverage;
    let missing = |tag: &str| Stale::Malformed(format!("missing '{tag}' line"));
    engine.baseline = match lifecycle {
        Lifecycle::Building => {
            let (seen, truncated) = totals.ok_or_else(|| missing("t"))?;
            Baseline {
                min_samples,
                min_coverage: min_coverage.max(1),
                state: BaselineState::Building {
                    cells: building_cells,
                    seen,
                    truncated,
                },
            }
        }
        Lifecycle::Locked => {
            let (truncation_rate, samples) = locked_totals.ok_or_else(|| missing("T"))?;
            Baseline {
                min_samples,
                min_coverage: min_coverage.max(1),
                state: BaselineState::Locked {
                    cells: locked_cells,
                    truncation_rate,
                    samples,
                },
            }
        }
    };
    engine.window = window;
    engine.events_state = events_state;
    Ok(engine)
}

/// Loads and restores the snapshot inside `dir`, if any.
pub fn load(config: MonitorConfig, dir: &Path) -> Result<MonitorEngine, Stale> {
    restore(config, &read_artifact(&snapshot_path(dir))?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Payload, Request};
    use csa_experiments::PeriodModel;

    fn run_engine(count: usize, min_samples: u64) -> MonitorEngine {
        let mut engine = MonitorEngine::new(MonitorConfig {
            batch_window: 4,
            min_samples,
            ..MonitorConfig::default()
        });
        for k in 0..count {
            engine.submit(Request {
                id: k as u64 + 1,
                payload: Payload::Generated {
                    profile: PeriodModel::MarginTight,
                    seed: 7,
                    n: 4,
                    index: k,
                },
            });
        }
        engine.flush();
        engine
    }

    #[test]
    fn building_snapshot_round_trips() {
        let engine = run_engine(6, 1_000);
        assert_eq!(engine.lifecycle(), Lifecycle::Building);
        let text = snapshot_string(&engine);
        let restored = restore(engine.config().clone(), &text).unwrap();
        assert_eq!(snapshot_string(&restored), text);
        assert_eq!(restored.processed(), engine.processed());
        assert_eq!(restored.baseline(), engine.baseline());
    }

    #[test]
    fn locked_snapshot_round_trips() {
        let engine = run_engine(16, 4);
        assert_eq!(engine.lifecycle(), Lifecycle::Locked);
        let text = snapshot_string(&engine);
        let restored = restore(engine.config().clone(), &text).unwrap();
        assert_eq!(snapshot_string(&restored), text);
        assert_eq!(restored.baseline(), engine.baseline());
    }

    /// FNV-1a digests of [`snapshot_string`] for the Building
    /// (`run_engine(6, 1_000)`) and Locked (`run_engine(16, 4)`) engines,
    /// captured before the artifact codec was shared (DESIGN.md §15):
    /// resumes in the field read these bytes.
    const SNAPSHOT_DIGESTS: [u64; 2] = [0xeb6d_9dd7_4785_2cce, 0x6c52_f771_0100_7db7];

    #[test]
    fn snapshot_bytes_are_pinned() {
        let engines = [run_engine(6, 1_000), run_engine(16, 4)];
        for (engine, want) in engines.iter().zip(SNAPSHOT_DIGESTS) {
            let mut h = csa_experiments::artifact::Fnv64::default();
            h.write_bytes(snapshot_string(engine).as_bytes());
            assert_eq!(
                h.finish(),
                want,
                "{} snapshot drifted: {:#018x}",
                engine.lifecycle(),
                h.finish()
            );
        }
    }

    #[test]
    fn fingerprint_mismatch_names_the_field() {
        let engine = run_engine(2, 1_000);
        let text = snapshot_string(&engine);
        let mut other = engine.config().clone();
        other.cooldown += 1;
        assert_eq!(
            restore(other, &text).err(),
            Some(Stale::Mismatch("cooldown".to_string()))
        );
        // Latency-only knobs are not fingerprinted.
        let mut latency_only = engine.config().clone();
        latency_only.threads = 7;
        latency_only.batch_window = 1;
        latency_only.memo_tables = 3;
        assert!(restore(latency_only, &text).is_ok());
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        let engine = run_engine(2, 1_000);
        let config = engine.config().clone();
        assert!(matches!(
            restore(config.clone(), ""),
            Err(Stale::Malformed(_))
        ));
        assert_eq!(
            restore(config.clone(), "csaw1|nope").err(),
            Some(Stale::Mismatch("tag".to_string()))
        );
        let good = snapshot_string(&engine);
        let truncated: String = good.lines().take(1).collect();
        assert!(matches!(
            restore(config, &truncated),
            Err(Stale::Malformed(_))
        ));
    }
}
