//! Command-line contract of the monitor binaries (DESIGN.md §16),
//! checked on the real executables: `--help` answers without reading
//! stdin and names every flag of the binary's table, and a rejected
//! command line exits 2 before stdin is read.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const MONITOR: &str = env!("CARGO_BIN_EXE_monitor");
const STREAM: &str = env!("CARGO_BIN_EXE_monitor_stream");

/// Each binary with the flags its table declares.
const BINARIES: [(&str, &str, &[&str]); 2] = [
    (
        "monitor",
        MONITOR,
        &[
            "--threads",
            "--search",
            "--budget",
            "--batch",
            "--min-samples",
            "--min-coverage",
            "--z",
            "--persistence",
            "--cooldown",
            "--drift-window",
            "--drift-threshold",
            "--memo-tables",
            "--snapshot-dir",
            "--resume",
        ],
    ),
    (
        "monitor_stream",
        STREAM,
        &["--profile", "--n", "--count", "--seed"],
    ),
];

/// An empty working directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("csa_monitor_cli_it_{}_{tag}", std::process::id()));
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
fn help_exits_zero_without_reading_stdin_and_names_every_flag() {
    for (name, bin, flags) in BINARIES {
        let scratch = Scratch::new(&format!("help_{name}"));
        let out = run(bin, &["--help"], &scratch.0);
        assert_eq!(out.code, Some(0), "{name} --help: {}", out.stderr);
        assert!(out.stdout.starts_with(&format!("usage: {name} ")));
        for flag in flags {
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
fn rejected_command_lines_exit_two_and_write_nothing() {
    for (bin, args, needle) in [
        (MONITOR, &["--quik"][..], "monitor: unknown flag --quik"),
        (
            STREAM,
            &["--quik"][..],
            "monitor_stream: unknown flag --quik",
        ),
        (
            MONITOR,
            &["--resume"][..],
            "--resume requires --snapshot-dir",
        ),
        (
            MONITOR,
            &["--z", "nan"][..],
            "invalid value \"nan\" for --z",
        ),
        (
            MONITOR,
            &["--drift-threshold=inf"][..],
            "for --drift-threshold",
        ),
        (MONITOR, &["--threads", "soup"][..], "for --threads"),
        (
            MONITOR,
            &["--batch", "8", "--batch", "4"][..],
            "--batch given more than once",
        ),
        (
            STREAM,
            &["--count", "-3"][..],
            "invalid value \"-3\" for --count",
        ),
    ] {
        let scratch = Scratch::new("reject");
        let out = run(bin, args, &scratch.0);
        assert_eq!(out.code, Some(2), "{args:?}: {}", out.stderr);
        assert!(out.stderr.contains(needle), "{args:?}: {}", out.stderr);
        assert!(out.stdout.is_empty(), "{args:?} answered: {}", out.stdout);
        assert!(
            !scratch.0.join("results").exists(),
            "{args:?} created results/"
        );
    }
}

#[test]
fn equals_form_sets_the_value() {
    let scratch = Scratch::new("equals");
    for args in [&["--count=3"][..], &["--count", "3"][..]] {
        let out = run(STREAM, args, &scratch.0);
        assert_eq!(out.code, Some(0), "{args:?}: {}", out.stderr);
        assert_eq!(out.stdout.lines().count(), 3, "{args:?}");
    }
}
