//! The shared artifact codec's stale diagnosis, tabled over the three
//! real fingerprint headers: the margin-table artifact (`csamt1`), the
//! sweep checkpoint journal (`csacp1`) and the monitor snapshot
//! (`csamon1`) — DESIGN.md §15. This crate is the one that sees all
//! three formats.

use csa_experiments::artifact::{LineCursor, Stale};
use csa_experiments::{save_margin_artifact, OrchestratorConfig, SweepSpec};
use csa_monitor::snapshot::snapshot_string;
use csa_monitor::{MonitorConfig, MonitorEngine};
use std::sync::OnceLock;

/// First content line of a text (the header).
fn header_of(text: &str) -> String {
    text.lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .expect("a header line")
        .to_string()
}

/// The three headers, built once (the margin header is read back from
/// a header-only artifact in a scratch directory).
fn real_headers() -> &'static [String] {
    static HEADERS: OnceLock<Vec<String>> = OnceLock::new();
    HEADERS.get_or_init(build_headers)
}

fn build_headers() -> Vec<String> {
    let dir = std::env::temp_dir().join(format!("csa_codec_table_{}", std::process::id()));
    let path = dir.join("margin_tables.csamt");
    save_margin_artifact(&path, &[], &[]).expect("header-only margin artifact");
    let margin = header_of(&std::fs::read_to_string(&path).expect("readable"));
    std::fs::remove_dir_all(dir).expect("clean up");

    let sweep = SweepSpec {
        name: "census",
        columns: &["feasible", "lies"],
        seed: 77,
        task_counts: vec![4, 8],
        benchmarks: 300,
        config: vec![("profile", "grid-snapped".to_string())],
    };
    let journal = sweep.header_line(&OrchestratorConfig::in_memory());

    let snapshot = header_of(&snapshot_string(&MonitorEngine::new(
        MonitorConfig::default(),
    )));
    vec![margin, journal, snapshot]
}

fn diagnose(expected: &str, got: &str) -> Result<(), Stale> {
    LineCursor::new(got).header(expected)
}

#[test]
fn every_field_of_every_real_header_is_named() {
    let headers = real_headers();
    let tags: Vec<&str> = headers.iter().map(|h| &h[..h.find('|').unwrap()]).collect();
    assert_eq!(tags, ["csamt1", "csacp1", "csamon1"]);
    for expected in headers {
        assert_eq!(diagnose(expected, expected), Ok(()), "{expected}");
        let fields: Vec<&str> = expected.split('|').collect();
        for idx in 0..fields.len() {
            let mut changed: Vec<String> = fields.iter().map(|f| f.to_string()).collect();
            changed[idx].push('0');
            let key = if idx == 0 {
                "tag"
            } else {
                fields[idx].split_once('=').expect("key=value").0
            };
            assert_eq!(
                diagnose(expected, &changed.join("|")),
                Err(Stale::Mismatch(key.to_string())),
                "{expected}: field {idx}"
            );
        }
    }
}

#[test]
fn foreign_tags_and_changed_layouts_are_diagnosed() {
    for expected in real_headers() {
        let (_, rest) = expected.split_once('|').expect("tag|fields");
        assert_eq!(
            diagnose(expected, &format!("csaw1|{rest}")),
            Err(Stale::Mismatch("tag".to_string())),
            "{expected}"
        );
        let fields: Vec<&str> = expected.split('|').collect();
        let dropped = [&fields[..1], &fields[2..]].concat().join("|");
        let added = format!("{expected}|extra=1");
        for got in [dropped, added] {
            let err = diagnose(expected, &got).unwrap_err();
            assert!(matches!(err, Stale::Malformed(_)), "{got}: {err:?}");
        }
    }
}
