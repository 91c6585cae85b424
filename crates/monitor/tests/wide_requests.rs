//! A task set wider than one mask word (n = 65) through the real
//! `monitor` binary: the request is answered, and the closing summary
//! line counts the checks it spent.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

const MONITOR: &str = env!("CARGO_BIN_EXE_monitor");

/// An empty working directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("csa_monitor_wide_it_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The number in `text` right before `label` (e.g. `"840 logical checks"`).
fn count_before(text: &str, label: &str) -> u64 {
    let head = &text[..text
        .find(label)
        .unwrap_or_else(|| panic!("no {label:?} in {text}"))];
    let digits = head.trim_end().rsplit(' ').next().unwrap_or("");
    digits
        .parse()
        .unwrap_or_else(|_| panic!("no count before {label:?} in {text}"))
}

#[test]
fn wide_request_summary_counts_its_checks() {
    let scratch = Scratch::new("summary");
    let mut child = Command::new(MONITOR)
        .args([
            "--threads",
            "1",
            "--search",
            "portfolio",
            "--budget",
            "2000",
        ])
        .current_dir(&scratch.0)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn monitor");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(b"{\"id\":1,\"profile\":\"grid-snapped\",\"seed\":3,\"n\":65,\"index\":0}\n")
        .expect("write request");
    let out = child.wait_with_output().expect("monitor output");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(out.status.code(), Some(0), "{stderr}");

    let response = stdout.lines().next().expect("one response");
    assert!(response.contains("\"n\":65"), "{response}");
    let checks: u64 = response
        .split("\"checks\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|digits| digits.parse().ok())
        .unwrap_or_else(|| panic!("no checks field in {response}"));
    assert!(checks > 0, "{response}");

    let summary = stderr
        .lines()
        .find(|l| l.starts_with("monitor: 1 requests"))
        .unwrap_or_else(|| panic!("no summary line in {stderr}"));
    let logical = count_before(summary, "logical checks");
    assert!(logical >= checks, "{summary} vs response {response}");
    assert!(summary.ends_with("1 warm memo tables"), "{summary}");
}
