//! Anomaly-rarity census (supports the paper's §IV/§V argument);
//! results are identical at any thread count. Every anomalous instance
//! found is serialized as a replayable witness line.
//!
//! Crash safety (DESIGN.md §11): the orchestration flags journal each
//! completed shard and resume a killed run with bit-identical final
//! output; panicking or overlong instances are quarantined (recorded
//! with their replayable seed, never aborting the run). `census
//! --help` lists the flags.

use csa_experiments::{
    cli, csv_file_name, format_census, run_census_orchestrated, warm_cached_tables, write_csv,
    write_quarantine_file, write_witness_file, CensusConfig,
};

fn main() -> std::io::Result<()> {
    let args = cli::parse(&[&cli::SWEEP, &cli::ORCHESTRATION]);
    let profile = args.profile();
    let search = args.search();
    let orch = args.orchestrator();
    let mut config = if args.switch("--quick") {
        CensusConfig::quick()
    } else {
        CensusConfig::paper()
    }
    .with_profile(profile)
    .with_search(search);
    if let Some(counts) = args.list("--n") {
        config.task_counts = counts;
    }
    let threads = args.threads();
    eprintln!(
        "census: {} benchmarks per n over n = {:?} (profile {}, search {}, {} worker threads)",
        config.benchmarks, config.task_counts, profile, search.mode, threads
    );
    warm_cached_tables(threads);
    let run = run_census_orchestrated(&config, &orch, threads)?;
    eprintln!(
        "census: {} shard(s) computed, {} resumed from checkpoint, {} instance(s) quarantined",
        run.shards_computed,
        run.shards_resumed,
        run.quarantined.len()
    );
    println!("{}", format_census(&run.rows));
    let path = write_csv(
        &csv_file_name("census", profile, &search),
        "n,benchmarks,solvable,interference_anomalies,priority_raise_anomalies,opa_incomplete,unsafe_invalid,certificate_lies,truncated,quarantined",
        run.rows.iter().map(|r| {
            format!(
                "{},{},{},{},{},{},{},{},{},{}",
                r.n,
                r.benchmarks,
                r.solvable,
                r.interference_anomalies,
                r.priority_raise_anomalies,
                r.opa_incomplete,
                r.unsafe_invalid,
                r.certificate_lies,
                r.truncated,
                r.quarantined
            )
        }),
    )?;
    eprintln!("wrote {}", path.display());
    if !run.witnesses.is_empty() {
        let wpath = write_witness_file(&format!("witnesses_census_{profile}.txt"), &run.witnesses)?;
        eprintln!(
            "wrote {} anomalous-instance witness(es) to {}",
            run.witnesses.len(),
            wpath.display()
        );
    }
    if !run.quarantined.is_empty() {
        let qpath = write_quarantine_file(
            &format!("quarantine_census_{profile}.txt"),
            &run.quarantined,
        )?;
        eprintln!(
            "wrote {} quarantined instance(s) to {} (each line carries the rng seed for offline replay)",
            run.quarantined.len(),
            qpath.display()
        );
    }
    Ok(())
}
