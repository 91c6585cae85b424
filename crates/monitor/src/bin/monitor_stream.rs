//! Seeded request-stream generator: prints the deterministic JSONL
//! request stream that `monitor` consumes.
//!
//! `monitor_stream --help` lists the flags. The stream addresses instances exactly like the census sweep
//! (`instance_seed(seed, n, index)` with per-`n` indices), so piping it
//! into `monitor` replays the same benchmark instances a batch sweep at
//! the same coordinates would assess.

use csa_experiments::cli::{self, Flag};
use csa_monitor::jsonl::request_line;
use csa_monitor::{generate_stream, StreamConfig};

const FLAGS: [Flag; 2] = [
    Flag::int("--count", 0, "requests to generate (default: 200)"),
    Flag::int("--seed", 0, "stream seed (default: 7)"),
];

fn main() {
    let args = cli::parse(&[&[cli::PROFILE, cli::TASK_COUNTS], &FLAGS]);
    let defaults = StreamConfig::default();
    let config = StreamConfig {
        count: args.get("--count").unwrap_or(defaults.count),
        seed: args.get("--seed").unwrap_or(defaults.seed),
        task_counts: args.list("--n").unwrap_or(defaults.task_counts),
        profile: args.profile(),
    };
    for request in generate_stream(&config) {
        println!("{}", request_line(&request));
    }
}
