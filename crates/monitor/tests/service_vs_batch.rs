//! Differential pinning: the streaming service must produce exactly
//! the batch analysis's verdicts.
//!
//! The committed witness corpus (every pathological instance the
//! regression sweeps ever found) is replayed through the service as
//! inline requests, and each response is compared field-by-field
//! against an independent `classify_instance` run on the same task
//! set — then the whole response stream is checked bit-identical at
//! every batch size and thread count, both as typed values and as
//! serialized JSONL.

use csa_experiments::{parse_witness_corpus, SearchConfig, Witness};
use csa_monitor::jsonl::response_line;
use csa_monitor::{MonitorConfig, MonitorEngine, Payload, Request, Response, Verdict};

const CORPUS: &str = include_str!("../../experiments/tests/data/witness_corpus.txt");

fn corpus() -> Vec<Witness> {
    let witnesses = parse_witness_corpus(CORPUS).expect("corpus parses");
    assert!(witnesses.len() >= 40, "corpus unexpectedly small");
    witnesses
}

/// Runs the whole corpus through a fresh service with the given batch
/// window and thread count.
fn run_service(witnesses: &[Witness], batch_window: usize, threads: usize) -> Vec<Response> {
    let mut engine = MonitorEngine::new(MonitorConfig {
        batch_window,
        threads,
        // Keep the baseline building for the whole replay so the
        // response stream carries no run-length-dependent events.
        min_samples: u64::MAX,
        ..MonitorConfig::default()
    });
    let mut responses = Vec::new();
    for (i, witness) in witnesses.iter().enumerate() {
        responses.extend(engine.submit(Request {
            id: i as u64 + 1,
            payload: Payload::Inline {
                tasks: witness.tasks.clone(),
            },
        }));
    }
    responses.extend(engine.flush());
    responses
}

#[test]
fn service_verdicts_equal_batch_classification() {
    let witnesses = corpus();
    let responses = run_service(&witnesses, 8, 1);
    assert_eq!(responses.len(), witnesses.len());
    let search = SearchConfig::default();
    for (witness, response) in witnesses.iter().zip(&responses) {
        let reference = csa_experiments::classify_instance(&witness.tasks, &search);
        let expected = if reference.solvable() {
            Verdict::Admit
        } else if reference.truncated() {
            Verdict::Unknown
        } else {
            Verdict::Reject
        };
        assert_eq!(response.verdict, expected, "witness {witness:?}");
        assert_eq!(response.checks, reference.outcome.stats.checks);
        assert_eq!(response.truncated, reference.outcome.stats.truncated);
        assert_eq!(response.anomalies, reference.kinds(), "witness {witness:?}");
        assert_eq!(response.n, witness.tasks.len());
        assert_eq!(response.profile, csa_monitor::INLINE_PROFILE);
        assert!(response.quarantine.is_none());
        // The corpus records pathologies: the recorded class must
        // resurface in the service's census classification whenever
        // the instance admits (anomaly classes are defined relative to
        // a found assignment; unsolvable instances legitimately report
        // none).
        if response.verdict == Verdict::Admit {
            assert!(
                !response.anomalies.is_empty(),
                "admitted corpus witness lost its anomaly: {witness:?}"
            );
        }
    }
}

#[test]
fn responses_are_bit_identical_at_any_batch_size_and_thread_count() {
    let witnesses = corpus();
    let reference = run_service(&witnesses, 1, 1);
    let reference_jsonl: Vec<String> = reference.iter().map(response_line).collect();
    for batch_window in [1usize, 7, witnesses.len()] {
        for threads in [1usize, 4] {
            let run = run_service(&witnesses, batch_window, threads);
            assert_eq!(
                run, reference,
                "typed divergence at batch={batch_window} threads={threads}"
            );
            let jsonl: Vec<String> = run.iter().map(response_line).collect();
            assert_eq!(
                jsonl, reference_jsonl,
                "serialized divergence at batch={batch_window} threads={threads}"
            );
        }
    }
}

#[test]
fn replaying_generated_coordinates_matches_inline_replay() {
    // Witness lines carry both the generator coordinates and the
    // materialized task set; the service must treat them identically
    // (same assessment, same checks) whichever form arrives.
    let witnesses = corpus();
    let inline = run_service(&witnesses, 8, 1);
    let mut engine = MonitorEngine::new(MonitorConfig {
        batch_window: 8,
        min_samples: u64::MAX,
        ..MonitorConfig::default()
    });
    let mut generated = Vec::new();
    for (i, w) in witnesses.iter().enumerate() {
        generated.extend(engine.submit(Request {
            id: i as u64 + 1,
            payload: Payload::Generated {
                profile: w.profile,
                seed: w.seed,
                n: w.n,
                index: w.index,
            },
        }));
    }
    generated.extend(engine.flush());
    assert_eq!(generated.len(), inline.len());
    for (g, i) in generated.iter().zip(&inline) {
        assert_eq!(g.verdict, i.verdict);
        assert_eq!(g.checks, i.checks);
        assert_eq!(g.truncated, i.truncated);
        assert_eq!(g.slack, i.slack);
        assert_eq!(g.norm_slack, i.norm_slack);
        assert_eq!(g.anomalies, i.anomalies);
    }
}

#[test]
fn malformed_line_answers_the_buffered_window_before_exiting() {
    use std::io::Write;
    use std::process::{Command, Stdio};

    // Five valid requests sit in an 8-request window when the garbage
    // line arrives: all five are answered, then the stream is rejected.
    let mut stdin = String::new();
    for (i, witness) in corpus().iter().take(5).enumerate() {
        stdin.push_str(&csa_monitor::jsonl::request_line(&Request {
            id: i as u64 + 1,
            payload: Payload::Inline {
                tasks: witness.tasks.clone(),
            },
        }));
        stdin.push('\n');
    }
    stdin.push_str("this is not a request\n");
    let dir = std::env::temp_dir().join(format!("csa-monitor-malformed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let mut child = Command::new(env!("CARGO_BIN_EXE_monitor"))
        .args(["--batch", "8"])
        .current_dir(&dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn monitor");
    child
        .stdin
        .take()
        .expect("stdin handle")
        .write_all(stdin.as_bytes())
        .expect("write stream");
    let out = child.wait_with_output().expect("monitor exit");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(stderr.contains("malformed request on line 6"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ids: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("\"verdict\":"))
        .map(|l| l.split(',').next().unwrap_or(""))
        .collect();
    assert_eq!(
        ids,
        [
            "{\"id\":1",
            "{\"id\":2",
            "{\"id\":3",
            "{\"id\":4",
            "{\"id\":5"
        ],
        "stdout:\n{stdout}"
    );
}
