//! Traced in-process replay of the benchmark workloads.
//!
//! ```text
//! perfbench-tracer census   --out DIR --trace 0|1 --profile P --search S --budget B
//!                           --n LIST --benchmarks K --threads T [--checkpoint-dir DIR]
//! perfbench-tracer monitor  --out DIR --trace 0|1 --stream FILE --budget B
//! perfbench-tracer crossval --out DIR --trace 0|1 --seed S --n N --unknowns K --budget B
//! ```
//!
//! Each subcommand runs the same work as the matching release binary
//! (`census`, `monitor --batch 1 --threads 1 --search portfolio`,
//! `crossval --threads 1 --profile continuous`), but calls the layers'
//! public functions one by one and wraps each call in a span. It writes
//! the program's outputs under `DIR` (so the benchmark can compare their
//! digests with the binary's), the spans to `DIR/spans.tsv` at exit,
//! and prints one JSON line of counters and the end-to-end time.
//! `--trace 0` runs the identical code with the recorder off.

mod replay;
mod timing;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Parsed `--flag value` pairs after the subcommand.
struct Args {
    values: BTreeMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut values = BTreeMap::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            values.insert(key.to_string(), value.clone());
        }
        Ok(Args { values })
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        let v = self.str(key)?;
        v.parse()
            .map_err(|_| format!("--{key} {v:?} is not an unsigned integer"))
    }

    fn opt(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }
}

/// Writes the recorded spans as TSV, one line per span, ordered by id.
fn write_spans(path: &Path, spans: &[timing::Span]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(spans.len() * 64 + 64);
    out.push_str("id\tparent\tname\tkey\tstart_ns\tend_ns\tlogical\tcomputed\n");
    for s in spans {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.key, s.start_ns, s.end_ns, s.logical, s.computed
        );
    }
    csa_experiments::write_atomic(path, &out)
}

fn run(argv: &[String]) -> Result<(), String> {
    let (cmd, rest) = argv
        .split_first()
        .ok_or("usage: perfbench-tracer census|monitor|crossval --out DIR --trace 0|1 ...")?;
    let args = Args::parse(rest)?;
    let out = PathBuf::from(args.str("out")?);
    let traced = args.u64("trace")? == 1;
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    timing::set_enabled(traced);
    let report = match cmd.as_str() {
        "census" => replay::census(&args, &out)?,
        "monitor" => replay::monitor(&args, &out)?,
        "crossval" => replay::crossval(&args, &out)?,
        other => return Err(format!("unknown workload replay {other:?}")),
    };
    let spans = timing::take_spans();
    if traced {
        write_spans(&out.join("spans.tsv"), &spans).map_err(|e| format!("write spans: {e}"))?;
    }
    let fields: Vec<String> = report
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{{}, \"spans\": {}}}", fields.join(", "), spans.len());
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(why) = run(&argv) {
        eprintln!("perfbench-tracer: {why}");
        std::process::exit(2);
    }
}
