//! Executed-schedule cross-validation driver (DESIGN.md §12): runs every
//! corpus witness — and optionally a sweep of portfolio-unknown
//! instances — over one full hyperperiod of its quantized replica,
//! checking observed response times against the analytical WCRT/BCRT
//! bounds and replaying the recorded verdicts.
//!
//! The witnesses come from the committed corpus unless `--corpus`
//! names another; `--unknowns K` adds a scan of K benchmark instances
//! per n for portfolio-unknowns (`--profile continuous --n 16` reaches
//! the ~2% unknown population EXPERIMENTS.md reports). `crossval
//! --help` lists the flags and their defaults.
//!
//! Writes `results/crossval[_profile].csv` and exits non-zero on any
//! bound violation, WCRT-tightness miss, job-ledger mismatch, verdict
//! replay failure, or instance error. Results are bit-identical at any
//! `--threads` value.

use std::path::PathBuf;

use csa_experiments::cli::{self, Flag, Kind};
use csa_experiments::{
    find_unknown_instances, parse_witness_corpus, run_crossval, warm_cached_tables, write_csv,
    CrossvalConfig, CrossvalInstance, CrossvalRow, PeriodModel,
};

/// The committed witness corpus (pinned by the `witness_replay` suite).
const COMMITTED_CORPUS: &str = include_str!("../../tests/data/witness_corpus.txt");

const FLAGS: [Flag; 6] = [
    Flag::new("--corpus", Kind::Path, "default: the committed corpus"),
    Flag::int("--limit", 0, "first K witnesses (--quick: 20)"),
    Flag::int("--max-jobs", 0, "replica job cap (default: 20M)"),
    Flag::int("--unknowns", 0, "unknown scan per n (default: 400)"),
    Flag::int("--budget", 1, "scan check budget (default: 50000)"),
    Flag::int("--seed", 0, "scan seed (default: 77)"),
];

fn main() -> std::io::Result<()> {
    let args = cli::parse(&[
        &[cli::QUICK, cli::THREADS, cli::PROFILE, cli::TASK_COUNTS],
        &FLAGS,
    ]);
    let quick = args.switch("--quick");
    let threads = args.threads();
    let profile = args.profile();
    let seed = args.get("--seed").unwrap_or(77);
    let max_jobs = args
        .get("--max-jobs")
        .unwrap_or(if quick { 2_000_000 } else { 20_000_000 });
    let budget = args.get("--budget").unwrap_or(50_000);
    let unknown_scan = args
        .get("--unknowns")
        .unwrap_or(if quick { 0 } else { 400 });
    let cfg = CrossvalConfig {
        threads,
        max_jobs,
        ..Default::default()
    };

    // Witness instances: the committed corpus unless --corpus points
    // elsewhere, optionally truncated by --limit for smoke runs.
    let corpus_text = match args.get::<PathBuf>("--corpus") {
        Some(path) => std::fs::read_to_string(path)?,
        None => COMMITTED_CORPUS.to_string(),
    };
    let witnesses = parse_witness_corpus(&corpus_text).unwrap_or_else(|e| {
        eprintln!("bad witness corpus: {e}");
        std::process::exit(2);
    });
    let limit = args
        .get("--limit")
        .unwrap_or(if quick { 20 } else { usize::MAX });
    let mut instances: Vec<CrossvalInstance> = witnesses
        .iter()
        .take(limit)
        .map(CrossvalInstance::from_witness)
        .collect();
    let witness_count = instances.len();
    eprintln!(
        "crossval: {witness_count}/{} corpus witnesses, max {max_jobs} jobs per replica, {threads} worker threads",
        witnesses.len()
    );

    // Portfolio-unknown sweep: instances a budgeted anytime search left
    // undecided — exactly the ones with no analysis verdict to lean on.
    // Only the scan draws benchmarks; witness-only runs never touch the
    // margin tables, so they skip the artifact entirely.
    if unknown_scan > 0 {
        warm_cached_tables(threads);
        for n in args.list("--n").unwrap_or_else(|| vec![16]) {
            let unknown = find_unknown_instances(profile, n, unknown_scan, seed, budget, threads);
            eprintln!(
                "crossval: {} portfolio-unknowns among {unknown_scan} {profile} instances at n = {n} (budget {budget})",
                unknown.len()
            );
            instances.extend(unknown);
        }
    }

    let report = run_crossval(&instances, &cfg);
    let total_jobs: u64 = report
        .rows
        .iter()
        .filter(|r| r.policy == "worst")
        .map(|r| r.jobs)
        .sum();
    let file = if profile == PeriodModel::GridSnapped {
        "crossval.csv".to_string()
    } else {
        format!("crossval_{profile}.csv")
    };
    let rows: Vec<String> = report.rows.iter().map(CrossvalRow::to_csv_row).collect();
    let path = write_csv(&file, CrossvalRow::CSV_HEADER, rows)?;
    eprintln!(
        "crossval: executed {} instances ({} simulated jobs per policy) -> {}",
        instances.len(),
        total_jobs,
        path.display()
    );

    let violations = report.total_violations();
    let tightness = report.wcrt_tightness_failures();
    let ledger = report.ledger_failures();
    let verdicts = report.verdict_failures();
    eprintln!(
        "crossval: {violations} bound violations, {tightness} WCRT-tightness misses, \
         {ledger} ledger mismatches, {verdicts} verdict replay failures, {} errors",
        report.errors.len()
    );
    for (label, error) in &report.errors {
        eprintln!("crossval: ERROR {label}: {error}");
    }
    if violations > 0 || tightness > 0 || ledger > 0 || verdicts > 0 || !report.errors.is_empty() {
        std::process::exit(1);
    }
    Ok(())
}
