//! Regenerates the paper's Fig. 2 (cost vs. sampling period); the
//! curves are identical at any thread count. `fig2 --help` lists the
//! flags.

use csa_experiments::{cli, run_fig2_with_threads, write_csv, Fig2Config};

fn main() -> std::io::Result<()> {
    let args = cli::parse(&[&[cli::QUICK, cli::THREADS]]);
    let config = if args.switch("--quick") {
        Fig2Config::quick()
    } else {
        Fig2Config::paper()
    };
    let threads = args.threads();
    eprintln!(
        "fig2: sweeping h in [{}, {}] s with {} points ({} worker threads)",
        config.h_min, config.h_max, config.points, threads
    );
    let curves = run_fig2_with_threads(&config, threads);
    for c in &curves {
        println!(
            "{}: {} local maxima, increasing trend: {}, dynamic range: {:.2e}",
            c.plant,
            c.non_monotone_points(),
            c.has_increasing_trend(),
            c.dynamic_range()
        );
        let path = write_csv(
            &format!("fig2_{}.csv", c.plant),
            "period_s,cost",
            c.samples.iter().map(|(h, j)| format!("{h:.6},{j:.6e}")),
        )?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}
