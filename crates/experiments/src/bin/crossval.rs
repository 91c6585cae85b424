//! Executed-schedule cross-validation driver (DESIGN.md §12): runs every
//! corpus witness — and optionally a sweep of portfolio-unknown
//! instances — over one full hyperperiod of its quantized replica,
//! checking observed response times against the analytical WCRT/BCRT
//! bounds and replaying the recorded verdicts.
//!
//! ```text
//! crossval [--quick] [--threads T] [--corpus PATH] [--limit K]
//!          [--max-jobs J] [--unknowns K] [--profile NAME] [--n LIST]
//!          [--budget B] [--seed S]
//! ```
//!
//! * `--corpus PATH` — witness corpus to execute (default: the committed
//!   corpus baked into the binary).
//! * `--limit K` — only the first K witnesses (`--quick` default: 20).
//! * `--max-jobs J` — replica job cap; the quantizer narrows its period
//!   mantissa until an instance fits (default 20M, quick 2M).
//! * `--unknowns K` — scan K benchmark instances per n for
//!   portfolio-unknowns and cross-validate them too (default 400, quick
//!   0 = skip; use `--profile continuous --n 16` to reach the
//!   population PR 5 measured at ~2% unknown).
//! * `--budget B` — portfolio check budget for the unknown scan
//!   (default 50 000).
//!
//! Writes `results/crossval[_profile].csv` and exits non-zero on any
//! bound violation, WCRT-tightness miss, job-ledger mismatch, verdict
//! replay failure, or instance error. Results are bit-identical at any
//! `--threads` value.

use csa_experiments::{
    find_unknown_instances, parse_witness_corpus, profile_flag, quick_flag, run_crossval,
    task_counts_flag, threads_flag, warm_cached_tables, write_csv, CrossvalConfig,
    CrossvalInstance, CrossvalRow, PeriodModel,
};

/// The committed witness corpus (pinned by the `witness_replay` suite).
const COMMITTED_CORPUS: &str = include_str!("../../tests/data/witness_corpus.txt");

/// Strict `--flag VALUE` / `--flag=VALUE` u64 parser: a present flag
/// with a malformed value aborts instead of silently falling back.
fn u64_arg(name: &str, default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        let value = if a == name {
            Some(args.get(i + 1).map(String::as_str).unwrap_or(""))
        } else {
            a.strip_prefix(&format!("{name}="))
        };
        if let Some(v) = value {
            return v.parse().unwrap_or_else(|_| {
                eprintln!("bad {name} value {v:?}; expected an unsigned integer");
                std::process::exit(2);
            });
        }
    }
    default
}

/// Optional `--flag VALUE` string argument.
fn str_arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if a == name {
            return Some(args.get(i + 1).cloned().unwrap_or_default());
        }
        if let Some(v) = a.strip_prefix(&format!("{name}=")) {
            return Some(v.to_string());
        }
    }
    None
}

fn main() -> std::io::Result<()> {
    let quick = quick_flag();
    let threads = threads_flag();
    let profile = profile_flag();
    let seed = u64_arg("--seed", 77);
    let max_jobs = u64_arg("--max-jobs", if quick { 2_000_000 } else { 20_000_000 });
    let budget = u64_arg("--budget", 50_000);
    let unknown_scan = u64_arg("--unknowns", if quick { 0 } else { 400 }) as usize;
    let cfg = CrossvalConfig {
        threads,
        max_jobs,
        ..Default::default()
    };

    // Witness instances: the committed corpus unless --corpus points
    // elsewhere, optionally truncated by --limit for smoke runs.
    let corpus_text = match str_arg("--corpus") {
        Some(path) => std::fs::read_to_string(&path)?,
        None => COMMITTED_CORPUS.to_string(),
    };
    let witnesses = parse_witness_corpus(&corpus_text).unwrap_or_else(|e| {
        eprintln!("bad witness corpus: {e}");
        std::process::exit(2);
    });
    let limit = u64_arg("--limit", if quick { 20 } else { u64::MAX }) as usize;
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
        for n in task_counts_flag().unwrap_or_else(|| vec![16]) {
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
