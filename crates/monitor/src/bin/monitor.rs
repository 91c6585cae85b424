//! Stdin/stdout JSONL front-end of the monitoring service.
//!
//! Reads one request per line (see `csa_monitor::jsonl`), prints one
//! response line per request plus one line per fired anomaly event,
//! and optionally persists a crash-safe `csamon1` snapshot after every
//! batch. On a clean EOF it flushes the last partial batch, writes the
//! accumulated event log to `results/monitor_events.jsonl`, and prints
//! a summary to stderr. A malformed line exits 2, after answering the
//! valid requests already buffered in the window. `monitor --help`
//! lists the flags without reading stdin.
//!
//! With `--resume`, requests the snapshot says were already processed
//! are skipped, so re-piping the same stream after a crash continues
//! the response sequence (and the final snapshot) byte-identically.

use std::io::BufRead;
use std::path::{Path, PathBuf};

use csa_experiments::artifact::Stale;
use csa_experiments::cli::{self, Flag, Kind};
use csa_experiments::write_atomic;
use csa_monitor::jsonl::{event_line, parse_request, response_line};
use csa_monitor::snapshot;
use csa_monitor::{MonitorConfig, MonitorEngine, Response};

const FLAGS: [Flag; 11] = [
    Flag::int("--batch", 0, "requests per batch window"),
    Flag::int("--min-samples", 0, "samples before the baseline locks"),
    Flag::int("--min-coverage", 0, "cells before the baseline locks"),
    Flag::new("--z", Kind::Float, "margin event at z <= -X"),
    Flag::int("--persistence", 0, "triggers before a class fires"),
    Flag::int("--cooldown", 0, "requests a fired class stays quiet"),
    Flag::int("--drift-window", 0, "truncation-rate drift window"),
    Flag::new("--drift-threshold", Kind::Float, "drift at rate rise >= X"),
    Flag::int("--memo-tables", 0, "task-set memo tables kept warm"),
    Flag::new("--snapshot-dir", Kind::Path, "snapshot after each batch"),
    Flag::switch("--resume", "skip what the snapshot covers").requires("--snapshot-dir"),
];

/// Prints one response line per response plus one line per fired
/// event, appending the event lines to `log`.
fn emit(responses: &[Response], log: &mut Vec<String>) {
    for response in responses {
        println!("{}", response_line(response));
        for event in &response.events {
            let line = event_line(event);
            println!("{line}");
            log.push(line);
        }
    }
}

/// Persists the engine snapshot when `--snapshot-dir` is set; a failed
/// write exits 1.
fn save_snapshot(engine: &MonitorEngine, dir: Option<&Path>) {
    if let Some(dir) = dir {
        if let Err(e) = snapshot::save(engine, dir) {
            eprintln!("monitor: snapshot write failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Answers the partial window still buffered in the engine, then
/// persists the snapshot.
fn flush_window(engine: &mut MonitorEngine, snapshot_dir: Option<&Path>, log: &mut Vec<String>) {
    let responses = engine.flush();
    emit(&responses, log);
    save_snapshot(engine, snapshot_dir);
}

fn main() {
    let args = cli::parse(&[&[cli::THREADS, cli::SEARCH, cli::BUDGET], &FLAGS]);
    let defaults = MonitorConfig::default();
    let config = MonitorConfig {
        batch_window: args.get("--batch").unwrap_or(defaults.batch_window),
        threads: args.threads(),
        search: args.search(),
        min_samples: args.get("--min-samples").unwrap_or(defaults.min_samples),
        min_coverage: args.get("--min-coverage").unwrap_or(defaults.min_coverage),
        z_threshold: args.get("--z").unwrap_or(defaults.z_threshold),
        persistence: args.get("--persistence").unwrap_or(defaults.persistence),
        cooldown: args.get("--cooldown").unwrap_or(defaults.cooldown),
        drift_window: args.get("--drift-window").unwrap_or(defaults.drift_window),
        drift_threshold: args
            .get("--drift-threshold")
            .unwrap_or(defaults.drift_threshold),
        memo_tables: args.get("--memo-tables").unwrap_or(defaults.memo_tables),
    };
    let snapshot_dir: Option<PathBuf> = args.get("--snapshot-dir");

    // `--resume` requires `--snapshot-dir` (the flag table rejects it
    // alone), so a resume always has a snapshot directory to read.
    let mut engine = match snapshot_dir.as_deref().filter(|_| args.switch("--resume")) {
        None => MonitorEngine::new(config),
        Some(dir) => match snapshot::load(config.clone(), dir) {
            Ok(engine) => {
                eprintln!(
                    "monitor: resumed at {} processed requests ({})",
                    engine.processed(),
                    engine.lifecycle()
                );
                engine
            }
            Err(Stale::Missing) => MonitorEngine::new(config),
            Err(stale) => {
                eprintln!("monitor: {stale}; starting fresh");
                MonitorEngine::new(config)
            }
        },
    };

    // With --resume the caller re-pipes the stream from the start;
    // skip what the snapshot already covers.
    let mut skip = engine.processed();
    let mut event_log: Vec<String> = Vec::new();

    let stdin = std::io::stdin();
    for (lineno, line) in stdin.lock().lines().enumerate() {
        let line = match line {
            Ok(line) => line,
            Err(e) => {
                eprintln!("monitor: stdin read failed: {e}");
                std::process::exit(2);
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match parse_request(&line) {
            Ok(request) => request,
            Err(why) => {
                eprintln!("monitor: malformed request on line {}: {why}", lineno + 1);
                // Answer the valid requests already buffered in the
                // window before giving up on the stream.
                flush_window(&mut engine, snapshot_dir.as_deref(), &mut event_log);
                std::process::exit(2);
            }
        };
        if skip > 0 {
            skip -= 1;
            continue;
        }
        let responses = engine.submit(request);
        if !responses.is_empty() {
            emit(&responses, &mut event_log);
            save_snapshot(&engine, snapshot_dir.as_deref());
        }
    }
    flush_window(&mut engine, snapshot_dir.as_deref(), &mut event_log);

    let log_path = PathBuf::from(csa_experiments::RESULTS_DIR).join("monitor_events.jsonl");
    let mut log_text = event_log.join("\n");
    if !log_text.is_empty() {
        log_text.push('\n');
    }
    if let Err(e) = write_atomic(&log_path, &log_text) {
        eprintln!("monitor: could not write {}: {e}", log_path.display());
        std::process::exit(1);
    }

    eprintln!(
        "monitor: {} requests, {} events, {} quarantined, lifecycle {}, {} logical checks ({} computed), {} warm memo tables",
        engine.processed(),
        engine.events_emitted(),
        engine.quarantined(),
        engine.lifecycle(),
        engine.logical_checks(),
        engine.computed_checks(),
        engine.memo_tables()
    );
}
