//! The three workload replays. Each mirrors its release binary call for
//! call, with a span around every call into a layer:
//!
//! | span | layer call |
//! |---|---|
//! | `margins.load` / `margins.build` | `warm_cached_tables`, or the lazy table builds |
//! | `benchgen` | `generate_benchmark` |
//! | `search` | `SearchConfig::solve_on`, `portfolio_with_budget` |
//! | `classify.*` | the census detectors on the shared `StabilityChecker` |
//! | `orchestrate`, `instance`, `report.write` | `run_sharded_sweep`, the per-instance glue, result files |
//! | `request`, `jsonl.*`, `engine.submit` | the monitor's parse, submit and serialize |
//! | `crossval.scan`, `sim` | the unknown scan and `run_crossval` per instance |
//! | `replay.benchgen`, `replay.classify` | the monitor's materialize and classify, re-run after the timed stream |

use std::collections::{BTreeMap, VecDeque};
use std::path::Path;

use csa_core::{
    find_interference_removal_anomaly_on, find_priority_raise_anomaly_on, opa_on_checker,
    portfolio_with_budget, unsafe_quadratic_on, ControlTask, StabilityChecker, VerdictMemo,
    MEMO_MAX_TASKS,
};
use csa_experiments::{
    classify_instance, classify_instance_on, csv_file_name, format_task_list, generate_benchmark,
    has_certificate_lie_on, instance_seed, interpolated_tables, margin_artifact_path,
    margin_tables, parse_witness_corpus, run_crossval, run_sharded_sweep, warm_cached_tables,
    write_atomic, write_csv, write_witness_file, BenchmarkConfig, CensusConfig, CrossvalConfig,
    CrossvalInstance, CrossvalRow, CrossvalSource, InstanceOutput, OrchestratorConfig, PeriodModel,
    SearchConfig, SearchMode, SweepSpec, Witness, WitnessKind,
};
use csa_monitor::jsonl::{event_line, parse_request, response_line};
use csa_monitor::{MonitorConfig, MonitorEngine, Payload};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::timing::{self, span, span_counted, span_under, Counted};
use crate::Args;

/// Counters and the end-to-end time a replay reports, by name.
pub type Report = BTreeMap<&'static str, String>;

/// The census sweep's seed (hard-coded in `CensusConfig`).
const CENSUS_SEED: u64 = 77;

/// The census journal's column names, in `InstanceOutput::counts` order.
const CENSUS_COLUMNS: &[&str] = &[
    "solvable",
    "interference_anomalies",
    "priority_raise_anomalies",
    "opa_incomplete",
    "unsafe_invalid",
    "certificate_lies",
    "truncated",
];

const CENSUS_CSV_HEADER: &str = "n,benchmarks,solvable,interference_anomalies,priority_raise_anomalies,opa_incomplete,unsafe_invalid,certificate_lies,truncated,quarantined";

/// The committed witness corpus `crossval` executes.
const COMMITTED_CORPUS: &str =
    include_str!("../../../crates/experiments/tests/data/witness_corpus.txt");

/// Logical and computed check deltas measured across one span.
struct Checks(u64, u64);

impl Counted for Checks {
    fn counts(&self) -> (u64, u64) {
        (self.0, self.1)
    }
}

fn parse_list(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|v| v.parse().map_err(|_| format!("bad task count {v:?}")))
        .collect()
}

fn to_usize(v: u64) -> Result<usize, String> {
    usize::try_from(v).map_err(|_| format!("{v} does not fit in usize"))
}

/// Runs one detector on the shared checker inside a span carrying the
/// checks it spent.
fn checked<T>(
    checker: &mut StabilityChecker<'_>,
    name: &'static str,
    key: u64,
    f: impl FnOnce(&mut StabilityChecker<'_>) -> T,
) -> T {
    let (l0, c0) = (checker.logical_checks(), checker.computed_checks());
    span_counted(0, name, key, || {
        let out = f(checker);
        let counts = Checks(
            checker.logical_checks() - l0,
            checker.computed_checks() - c0,
        );
        (out, counts)
    })
    .0
}

/// The census classification of `classify_instance_on`, step by step.
fn classify_traced(tasks: &[ControlTask], search: &SearchConfig, key: u64) -> [bool; 7] {
    if tasks.len() > MEMO_MAX_TASKS {
        let c = span("classify.wide", key, || classify_instance(tasks, search));
        return [
            c.solvable(),
            c.interference_anomaly,
            c.priority_raise_anomaly,
            c.opa_incomplete,
            c.unsafe_invalid,
            c.certificate_lie,
            c.truncated(),
        ];
    }
    let mut checker = StabilityChecker::new(tasks);
    let cert = checked(&mut checker, "classify.cert_lie", key, |c| {
        has_certificate_lie_on(c)
    });
    let outcome = checked(&mut checker, "search", key, |c| search.solve_on(c));
    let (interf, prio, opa) = match &outcome.assignment {
        Some(pa) => (
            checked(&mut checker, "classify.interference", key, |c| {
                find_interference_removal_anomaly_on(c, pa).is_some()
            }),
            checked(&mut checker, "classify.priority_raise", key, |c| {
                find_priority_raise_anomaly_on(c, pa).is_some()
            }),
            checked(&mut checker, "classify.opa", key, |c| {
                opa_on_checker(c, u64::MAX).0.assignment.is_none()
            }),
        ),
        None => (false, false, false),
    };
    let unsafe_invalid =
        checked(
            &mut checker,
            "classify.unsafe",
            key,
            |c| match unsafe_quadratic_on(c).assignment {
                Some(pa) => !(0..c.len()).all(|i| c.check(i, &pa.hp_indices(i)).stable),
                None => false,
            },
        );
    [
        outcome.assignment.is_some(),
        interf,
        prio,
        opa,
        unsafe_invalid,
        cert,
        outcome.stats.truncated,
    ]
}

/// One census instance, exactly as the `census` binary evaluates it.
fn census_instance(
    config: &CensusConfig,
    n: usize,
    k: usize,
    rng_seed: u64,
    parent: u64,
) -> InstanceOutput {
    let key = ((n as u64) << 32) | k as u64;
    span_under(parent, "instance", key, || {
        let bench_cfg = BenchmarkConfig::with_model(n, config.profile);
        let tasks = span("benchgen", key, || {
            let mut rng = StdRng::seed_from_u64(rng_seed);
            generate_benchmark(&bench_cfg, &mut rng)
        });
        let hits = classify_traced(&tasks, &config.search, key);
        let kinds = [
            (hits[4], WitnessKind::UnsafeInvalid),
            (hits[1], WitnessKind::InterferenceAnomaly),
            (hits[2], WitnessKind::PriorityRaiseAnomaly),
            (hits[3], WitnessKind::OpaIncomplete),
            (hits[5], WitnessKind::CertificateLie),
        ];
        let witnesses = kinds
            .into_iter()
            .filter(|&(hit, _)| hit)
            .map(|(_, kind)| Witness {
                kind,
                profile: config.profile,
                seed: config.seed,
                n,
                index: k,
                tasks: tasks.clone(),
            })
            .collect();
        InstanceOutput {
            counts: hits.iter().map(|&h| u64::from(h)).collect(),
            witnesses,
        }
    })
}

/// The `census` binary's sweep, traced.
pub fn census(args: &Args, out: &Path) -> Result<Report, String> {
    let profile = PeriodModel::parse(args.str("profile")?).ok_or("bad --profile")?;
    let mode = SearchMode::parse(args.str("search")?).ok_or("bad --search")?;
    let search = SearchConfig::new(mode, args.u64("budget")?);
    let config = CensusConfig {
        task_counts: parse_list(args.str("n")?)?,
        benchmarks: to_usize(args.u64("benchmarks")?)?,
        seed: CENSUS_SEED,
        profile,
        search,
    };
    let threads = to_usize(args.u64("threads")?)?;
    let orch = OrchestratorConfig {
        checkpoint_dir: args.opt("checkpoint-dir").map(Into::into),
        resume: false,
        ..OrchestratorConfig::in_memory()
    };
    let spec = SweepSpec {
        name: "census",
        columns: CENSUS_COLUMNS,
        seed: config.seed,
        task_counts: config.task_counts.clone(),
        benchmarks: config.benchmarks,
        config: vec![
            ("profile", profile.name().to_string()),
            ("search", mode.name().to_string()),
            ("budget", search.budget.to_string()),
        ],
    };
    let warm = margin_artifact_path().exists();
    let t0 = timing::now_ns();
    let (cells, run) = span("run", 0, || -> Result<_, String> {
        let margin_span = if warm {
            "margins.load"
        } else {
            "margins.build"
        };
        let (tables, interp) = span(margin_span, 0, || warm_cached_tables(threads));
        let cells: usize = tables.iter().map(|t| t.entries.len()).sum::<usize>()
            + interp.iter().map(|i| i.runs().len()).sum::<usize>();
        let run = span("orchestrate", 0, || {
            let parent = timing::current();
            run_sharded_sweep(&spec, &orch, threads, |n, k, seed| {
                census_instance(&config, n, k, seed, parent)
            })
        })
        .map_err(|e| format!("sweep: {e}"))?;
        span("report.write", 0, || -> Result<(), String> {
            let rows = run.rows.iter().map(|r| {
                let counts: Vec<String> = r.counts.iter().map(u64::to_string).collect();
                format!(
                    "{},{},{},{}",
                    r.n,
                    r.benchmarks,
                    counts.join(","),
                    r.quarantined
                )
            });
            write_csv(
                &csv_file_name("census", profile, &search),
                CENSUS_CSV_HEADER,
                rows,
            )
            .map_err(|e| format!("write csv: {e}"))?;
            if !run.witnesses.is_empty() {
                write_witness_file(&format!("witnesses_census_{profile}.txt"), &run.witnesses)
                    .map_err(|e| format!("write witnesses: {e}"))?;
            }
            Ok(())
        })?;
        Ok((cells, run))
    })?;
    let e2e = timing::now_ns() - t0;
    let _ = out;
    let mut report = Report::new();
    report.insert("e2e_ns", e2e.to_string());
    report.insert("margins_warm", u64::from(warm).to_string());
    report.insert("margins_cells", cells.to_string());
    report.insert("shards", run.shards_computed.to_string());
    report.insert("quarantined", run.quarantined.len().to_string());
    Ok(report)
}

/// Mirror of the monitor's FIFO-bounded warm memo bank, keyed by the
/// lossless task-list text instead of a fingerprint.
struct ShadowBank {
    tables: BTreeMap<String, VerdictMemo>,
    order: VecDeque<String>,
    cap: usize,
    evictions: u64,
}

impl ShadowBank {
    fn take(&mut self, key: &str) -> Option<VerdictMemo> {
        let memo = self.tables.remove(key)?;
        self.order.retain(|k| k != key);
        Some(memo)
    }

    fn put(&mut self, key: String, memo: VerdictMemo) {
        if !self.tables.contains_key(&key) {
            self.order.push_back(key.clone());
        }
        self.tables.insert(key, memo);
        while self.tables.len() > self.cap {
            match self.order.pop_front() {
                Some(old) => {
                    self.tables.remove(&old);
                    self.evictions += 1;
                }
                None => break,
            }
        }
    }
}

/// The `monitor --batch 1 --threads 1 --search portfolio` service loop
/// over a request stream, traced; then the engine's materialize and
/// classify steps re-run outside the timed loop so the engine time they
/// do not explain can be reported.
pub fn monitor(args: &Args, out: &Path) -> Result<Report, String> {
    let stream_path = args.str("stream")?;
    let stream =
        std::fs::read_to_string(stream_path).map_err(|e| format!("read {stream_path}: {e}"))?;
    let search = SearchConfig::new(SearchMode::Portfolio, args.u64("budget")?);
    let config = MonitorConfig {
        batch_window: 1,
        threads: 1,
        search,
        ..MonitorConfig::default()
    };
    let mut engine = MonitorEngine::new(config.clone());
    let mut lines_out: Vec<String> = Vec::new();
    let t0 = timing::now_ns();
    let requests = span("run", 0, || -> Result<_, String> {
        span("margins.build", 0, || {
            margin_tables();
            interpolated_tables();
        });
        let mut requests = Vec::new();
        for (i, line) in stream.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let key = i as u64;
            span("request", key, || -> Result<(), String> {
                let request = span("jsonl.parse", key, || parse_request(line))
                    .map_err(|why| format!("line {}: {why}", i + 1))?;
                requests.push(request.clone());
                let responses = span("engine.submit", key, || engine.submit(request));
                span("jsonl.serialize", key, || {
                    for r in &responses {
                        lines_out.push(response_line(r));
                        lines_out.extend(r.events.iter().map(event_line));
                    }
                });
                Ok(())
            })?;
        }
        let responses = engine.flush();
        for r in &responses {
            lines_out.push(response_line(r));
            lines_out.extend(r.events.iter().map(event_line));
        }
        span("report.write", 0, || {
            let mut text = lines_out.join("\n");
            text.push('\n');
            write_atomic(&out.join("responses.jsonl"), &text)
        })
        .map_err(|e| format!("write responses: {e}"))?;
        Ok(requests)
    })?;
    let e2e = timing::now_ns() - t0;

    // Outside the timed loop: re-run materialize and classify per
    // request, through a bank that evicts like the engine's.
    let mut bank = ShadowBank {
        tables: BTreeMap::new(),
        order: VecDeque::new(),
        cap: config.memo_tables,
        evictions: 0,
    };
    let (mut lookups, mut hits) = (0u64, 0u64);
    for request in &requests {
        let key = request.id;
        let tasks = match &request.payload {
            Payload::Generated {
                profile,
                seed,
                n,
                index,
            } => span("replay.benchgen", key, || {
                let cfg = BenchmarkConfig::with_model(*n, *profile);
                let mut rng = StdRng::seed_from_u64(instance_seed(*seed, *n, *index));
                generate_benchmark(&cfg, &mut rng)
            }),
            Payload::Inline { tasks } => tasks.clone(),
        };
        if tasks.len() > MEMO_MAX_TASKS {
            span("replay.classify", key, || {
                classify_instance(&tasks, &search)
            });
            continue;
        }
        let text = format_task_list(&tasks);
        lookups += 1;
        let memo = match bank.take(&text) {
            Some(memo) => {
                hits += 1;
                memo
            }
            None => VerdictMemo::default(),
        };
        let memo = span_counted(0, "replay.classify", key, || {
            let mut checker = StabilityChecker::with_memo(&tasks, memo);
            classify_instance_on(&mut checker, &search);
            let counts = Checks(checker.logical_checks(), checker.computed_checks());
            (checker.into_memo(), counts)
        })
        .0;
        bank.put(text, memo);
    }

    let mut report = Report::new();
    report.insert("e2e_ns", e2e.to_string());
    report.insert("requests", requests.len().to_string());
    report.insert("bank_lookups", lookups.to_string());
    report.insert("bank_hits", hits.to_string());
    report.insert("bank_evictions", bank.evictions.to_string());
    report.insert("memo_tables", engine.memo_tables().to_string());
    report.insert("quarantined", engine.quarantined().to_string());
    report.insert("logical_checks", engine.logical_checks().to_string());
    report.insert("computed_checks", engine.computed_checks().to_string());
    let cells: usize = margin_tables()
        .iter()
        .map(|t| t.entries.len())
        .sum::<usize>()
        + interpolated_tables()
            .iter()
            .map(|i| i.runs().len())
            .sum::<usize>();
    report.insert("margins_cells", cells.to_string());
    Ok(report)
}

/// The `crossval --threads 1 --profile continuous` run, traced: the
/// committed corpus plus the portfolio-unknowns of a seeded scan, each
/// executed by `run_crossval` on its own.
pub fn crossval(args: &Args, _out: &Path) -> Result<Report, String> {
    let seed = args.u64("seed")?;
    let n = to_usize(args.u64("n")?)?;
    let scan = args.u64("unknowns")?;
    let budget = args.u64("budget")?;
    let profile = PeriodModel::Continuous;
    let cfg = CrossvalConfig {
        threads: 1,
        ..CrossvalConfig::default()
    };
    let witnesses = parse_witness_corpus(COMMITTED_CORPUS)?;
    let t0 = timing::now_ns();
    let (rows, errors, failures) = span("run", 0, || -> Result<_, String> {
        let mut instances: Vec<CrossvalInstance> = witnesses
            .iter()
            .map(CrossvalInstance::from_witness)
            .collect();
        if scan > 0 {
            span("margins.build", 0, || {
                interpolated_tables();
            });
            let bench_cfg = BenchmarkConfig::with_model(n, profile);
            let found = span("crossval.scan", 0, || {
                let mut found = Vec::new();
                for index in 0..to_usize(scan)? {
                    let key = index as u64;
                    let tasks = span("benchgen", key, || {
                        let mut rng = StdRng::seed_from_u64(instance_seed(seed, n, index));
                        generate_benchmark(&bench_cfg, &mut rng)
                    });
                    let unknown = span_counted(0, "search", key, || {
                        let o = portfolio_with_budget(&tasks, budget);
                        let c = Checks(o.stats.checks, o.stats.checks - o.stats.cache_hits);
                        (o.assignment.is_none() && o.truncated(), c)
                    })
                    .0;
                    if unknown {
                        found.push(CrossvalInstance {
                            source: CrossvalSource::Unknown,
                            profile,
                            seed,
                            n,
                            index,
                            tasks,
                        });
                    }
                }
                Ok::<_, String>(found)
            })?;
            instances.extend(found);
        }
        let mut rows: Vec<CrossvalRow> = Vec::new();
        let (mut errors, mut failures) = (0usize, 0u64);
        for (i, instance) in instances.iter().enumerate() {
            let report = span("sim", i as u64, || {
                run_crossval(std::slice::from_ref(instance), &cfg)
            });
            errors += report.errors.len();
            failures += report.total_violations()
                + (report.wcrt_tightness_failures()
                    + report.ledger_failures()
                    + report.verdict_failures()) as u64;
            rows.extend(report.rows);
        }
        span("report.write", 0, || {
            let file = if profile == PeriodModel::GridSnapped {
                "crossval.csv".to_string()
            } else {
                format!("crossval_{profile}.csv")
            };
            write_csv(
                &file,
                CrossvalRow::CSV_HEADER,
                rows.iter().map(CrossvalRow::to_csv_row),
            )
        })
        .map_err(|e| format!("write csv: {e}"))?;
        Ok((rows, errors, failures))
    })?;
    let e2e = timing::now_ns() - t0;
    let jobs: u64 = rows.iter().map(|r| r.jobs).sum();
    let mut report = Report::new();
    report.insert("e2e_ns", e2e.to_string());
    report.insert("sim_jobs", jobs.to_string());
    if scan > 0 {
        let cells: usize = interpolated_tables().iter().map(|i| i.runs().len()).sum();
        report.insert("margins_cells", cells.to_string());
    }
    report.insert("errors", errors.to_string());
    report.insert("failures", failures.to_string());
    Ok(report)
}
