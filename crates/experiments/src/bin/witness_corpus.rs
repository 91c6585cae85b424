//! Regenerates the committed witness corpus: sweeps the benchmark
//! distributions for anomalous instances and serializes them as
//! replayable witness lines.
//!
//! `witness_corpus --help` lists the flags. Output goes to
//! `results/witness_corpus_<profile>.txt`; the curated copy lives in
//! `crates/experiments/tests/data/` and is pinned by the
//! `witness_replay` regression suite. Regenerate and re-commit it only
//! when the generator intentionally changes (the replay test pins
//! bit-identical regeneration).

use csa_experiments::cli::{self, Flag};
use csa_experiments::{
    run_census_collecting, warm_cached_tables, write_witness_file, CensusConfig, SearchConfig,
};

const FLAGS: [Flag; 2] = [
    Flag::int("--benchmarks", 1, "per n (default: 20000; --quick: 500)"),
    Flag::int("--seed", 0, "benchmark seed (default: 77)"),
];

fn main() -> std::io::Result<()> {
    let args = cli::parse(&[
        &[cli::QUICK, cli::THREADS, cli::PROFILE, cli::TASK_COUNTS],
        &FLAGS,
    ]);
    let profile = args.profile();
    let task_counts = args.list("--n").unwrap_or_else(|| vec![4]);
    let benchmarks = args
        .get("--benchmarks")
        .unwrap_or(if args.switch("--quick") { 500 } else { 20_000 });
    let seed = args.get("--seed").unwrap_or(77);
    let threads = args.threads();
    // Always the complete unbudgeted search: the corpus is a committed
    // regression surface and must not depend on `--search`/`--budget`.
    let config = CensusConfig {
        task_counts,
        benchmarks,
        seed,
        profile,
        search: SearchConfig::default(),
    };
    eprintln!(
        "witness-corpus: {benchmarks} benchmarks per n over n = {:?} (seed {seed}, profile {profile}, {threads} worker threads)",
        config.task_counts
    );
    warm_cached_tables(threads);
    let (rows, witnesses) = run_census_collecting(&config, threads);
    for r in &rows {
        eprintln!(
            "n = {}: {} certificate lies, {} unsafe-invalid, {} interference anomalies, {} priority-raise, {} opa-incomplete",
            r.n, r.certificate_lies, r.unsafe_invalid, r.interference_anomalies,
            r.priority_raise_anomalies, r.opa_incomplete
        );
    }
    let path = write_witness_file(&format!("witness_corpus_{profile}.txt"), &witnesses)?;
    eprintln!(
        "wrote {} witness(es) to {}",
        witnesses.len(),
        path.display()
    );
    Ok(())
}
