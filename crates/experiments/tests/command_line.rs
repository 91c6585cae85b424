//! Command-line contract of every experiment binary (DESIGN.md §16),
//! checked on the real executables: `--help` answers without reading
//! stdin and names every flag of the binary's table, and a rejected
//! command line exits 2 before any work starts.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const SWEEP: &[&str] = &[
    "--quick",
    "--threads",
    "--profile",
    "--n",
    "--search",
    "--budget",
];
const ORCHESTRATION: &[&str] = &[
    "--checkpoint-dir",
    "--resume",
    "--shard-size",
    "--instance-timeout",
    "--reservoir",
];
const SCAN: &[&str] = &["--quick", "--threads", "--profile", "--n"];

/// Each binary with the flags its table declares.
fn binaries() -> Vec<(&'static str, &'static str, Vec<&'static str>)> {
    let cat = |parts: &[&[&'static str]]| parts.concat();
    vec![
        (
            "table1",
            env!("CARGO_BIN_EXE_table1"),
            cat(&[SWEEP, ORCHESTRATION]),
        ),
        (
            "census",
            env!("CARGO_BIN_EXE_census"),
            cat(&[SWEEP, ORCHESTRATION]),
        ),
        ("fig5", env!("CARGO_BIN_EXE_fig5"), cat(&[SWEEP])),
        ("all", env!("CARGO_BIN_EXE_all"), cat(&[SWEEP])),
        (
            "fig2",
            env!("CARGO_BIN_EXE_fig2"),
            cat(&[&["--quick", "--threads"]]),
        ),
        ("fig4", env!("CARGO_BIN_EXE_fig4"), cat(&[&["--quick"]])),
        (
            "crossval",
            env!("CARGO_BIN_EXE_crossval"),
            cat(&[
                SCAN,
                &[
                    "--corpus",
                    "--limit",
                    "--max-jobs",
                    "--unknowns",
                    "--budget",
                    "--seed",
                ],
            ]),
        ),
        (
            "witness_corpus",
            env!("CARGO_BIN_EXE_witness_corpus"),
            cat(&[SCAN, &["--benchmarks", "--seed"]]),
        ),
    ]
}

/// An empty working directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("csa_cli_it_{}_{tag}", std::process::id()));
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

struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

/// Runs `bin args` in `cwd` with stdin held open (never written or
/// closed), killing it if it has not exited within 30 s.
fn run(bin: &str, args: &[&str], cwd: &Path) -> Run {
    let mut child = Command::new(bin)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn binary");
    let stdin = child.stdin.take();
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll binary") {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().expect("kill binary");
            panic!("{bin} {args:?} did not exit within 30 s");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    drop(stdin);
    let mut stdout = String::new();
    let mut stderr = String::new();
    child
        .stdout
        .take()
        .expect("stdout")
        .read_to_string(&mut stdout)
        .expect("read stdout");
    child
        .stderr
        .take()
        .expect("stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    Run {
        code: status.code(),
        stdout,
        stderr,
    }
}

#[test]
fn help_exits_zero_and_names_every_flag() {
    for (name, bin, flags) in binaries() {
        let scratch = Scratch::new(&format!("help_{name}"));
        let out = run(bin, &["--help"], &scratch.0);
        assert_eq!(out.code, Some(0), "{name} --help: {}", out.stderr);
        assert!(out.stdout.starts_with(&format!("usage: {name} ")));
        for flag in &flags {
            assert!(
                out.stdout.contains(&format!("  {flag} ")),
                "{name} --help does not list {flag}:\n{}",
                out.stdout
            );
        }
        let listed = out.stdout.lines().filter(|l| l.starts_with("  --")).count();
        // The table's rows plus `--help` itself, and nothing else.
        assert_eq!(listed, flags.len() + 1, "{name}:\n{}", out.stdout);
    }
}

#[test]
fn typo_exits_two_with_a_suggestion_and_writes_nothing() {
    for (name, bin, _) in binaries() {
        let scratch = Scratch::new(&format!("typo_{name}"));
        let out = run(bin, &["--quik"], &scratch.0);
        assert_eq!(out.code, Some(2), "{name} --quik");
        assert_eq!(
            out.stderr,
            format!("{name}: unknown flag --quik (did you mean --quick?)\n")
        );
        assert!(out.stdout.is_empty());
        assert!(
            !scratch.0.join("results").exists(),
            "{name} created results/"
        );
    }
}

#[test]
fn silently_ignored_inputs_are_now_rejected() {
    let bin = |name: &str| {
        binaries()
            .into_iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, bin, _)| bin)
            .expect("known binary")
    };
    for (name, args, needle) in [
        ("fig4", &["--threads", "4"][..], "unknown flag --threads"),
        (
            "fig2",
            &["--threads", "soup"][..],
            "invalid value \"soup\" for --threads",
        ),
        (
            "fig2",
            &["--quick", "--threads"][..],
            "--threads needs a value",
        ),
        (
            "crossval",
            &["--budget", "0"][..],
            "invalid value \"0\" for --budget",
        ),
        (
            "witness_corpus",
            &["--benchmarks", "0"][..],
            "for --benchmarks",
        ),
        (
            "census",
            &["--resume"][..],
            "--resume requires --checkpoint-dir",
        ),
        (
            "table1",
            &["--quick", "--quick"][..],
            "--quick given more than once",
        ),
        (
            "all",
            &["--quick", "fig4"][..],
            "unexpected argument \"fig4\"",
        ),
    ] {
        let scratch = Scratch::new(&format!("reject_{name}"));
        let out = run(bin(name), args, &scratch.0);
        assert_eq!(out.code, Some(2), "{name} {args:?}: {}", out.stderr);
        assert!(
            out.stderr.contains(needle),
            "{name} {args:?}: {}",
            out.stderr
        );
        assert!(
            !scratch.0.join("results").exists(),
            "{name} created results/"
        );
    }
}
