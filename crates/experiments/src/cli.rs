//! The one command-line parser of the experiment and monitor binaries
//! (DESIGN.md §16).
//!
//! Each binary declares the flags it reads as a static table of
//! [`Flag`] rows — name, value [`Kind`], one-line help — usually built
//! from the shared groups [`SWEEP`] and [`ORCHESTRATION`]. [`parse`]
//! reads the process arguments once, before any work starts:
//!
//! * `--flag VALUE` and `--flag=VALUE` are equivalent everywhere;
//! * `--help` prints usage generated from the table and exits 0;
//! * an unknown flag (with a nearest-name suggestion), a stray
//!   positional argument, a repeated flag, a missing or invalid value,
//!   or a flag given without the flag it requires exits 2 with one
//!   precise line on stderr.
//!
//! Nothing is silently ignored: a value that parses is the value used.

use std::path::PathBuf;
use std::str::FromStr;

use crate::{available_threads, OrchestratorConfig, PeriodModel, SearchConfig, SearchMode};

/// What a flag's value must be.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Present or absent; takes no value.
    Switch,
    /// An unsigned integer no smaller than the given minimum.
    Int(u64),
    /// A finite number.
    Float,
    /// A comma-separated list of positive integers, e.g. `4,8,12`.
    List,
    /// A non-empty path.
    Path,
    /// A choice: one name of [`PeriodModel::ALL`].
    Profile,
    /// A choice: one name of [`SearchMode::ALL`].
    Search,
}

impl Kind {
    fn accepts(self, raw: &str) -> bool {
        match self {
            Kind::Switch => raw.is_empty(),
            Kind::Int(min) => raw.parse::<u64>().is_ok_and(|n| n >= min),
            Kind::Float => raw.parse::<f64>().is_ok_and(f64::is_finite),
            Kind::List => raw
                .split(',')
                .all(|n| n.trim().parse::<usize>().is_ok_and(|n| n > 0)),
            Kind::Path => !raw.is_empty(),
            Kind::Profile => PeriodModel::parse(raw).is_some(),
            Kind::Search => SearchMode::parse(raw).is_some(),
        }
    }

    /// The `--help` placeholder and what a rejection says is expected.
    fn expects(self) -> (&'static str, String) {
        match self {
            Kind::Switch => ("", "no value".to_string()),
            Kind::Int(0) => (" N", "an unsigned integer".to_string()),
            Kind::Int(min) => (" N", format!("an integer >= {min}")),
            Kind::Float => (" X", "a finite number".to_string()),
            Kind::List => (" LIST", "comma-separated positive integers".to_string()),
            Kind::Path => (" PATH", "a non-empty path".to_string()),
            Kind::Profile => (" NAME", one_of(&PeriodModel::ALL)),
            Kind::Search => (" NAME", one_of(&SearchMode::ALL)),
        }
    }
}

/// "one of a, b, c" over a choice's names, in documentation order.
fn one_of<T: std::fmt::Display>(all: &[T]) -> String {
    let names: Vec<String> = all.iter().map(T::to_string).collect();
    format!("one of {}", names.join(", "))
}

/// One row of a binary's flag table.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag as typed, including the leading `--`.
    name: &'static str,
    kind: Kind,
    /// One line for the generated `--help`.
    help: &'static str,
    /// Another flag that must be given whenever this one is.
    requires: Option<&'static str>,
}

impl Flag {
    /// A flag with no `requires` rule.
    pub const fn new(name: &'static str, kind: Kind, help: &'static str) -> Flag {
        let requires = None;
        Flag {
            name,
            kind,
            help,
            requires,
        }
    }

    /// A [`Kind::Switch`] flag.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag::new(name, Kind::Switch, help)
    }

    /// A [`Kind::Int`] flag with minimum `min`.
    pub const fn int(name: &'static str, min: u64, help: &'static str) -> Flag {
        Flag::new(name, Kind::Int(min), help)
    }

    /// This flag, rejected unless `other` is also given.
    pub const fn requires(self, other: &'static str) -> Flag {
        let requires = Some(other);
        Flag { requires, ..self }
    }
}

/// `--quick`: reduced scale for smoke runs.
pub const QUICK: Flag = Flag::switch("--quick", "reduced scale for smoke runs");
/// `--threads N`: worker count; `0` or absent is the available parallelism.
pub const THREADS: Flag = Flag::int("--threads", 0, "workers (default 0: all cores)");
/// `--profile NAME`: the benchmark [`PeriodModel`].
pub const PROFILE: Flag = Flag::new("--profile", Kind::Profile, "default: grid-snapped");
/// `--n LIST`: task-count sweep override.
pub const TASK_COUNTS: Flag = Flag::new("--n", Kind::List, "task counts, e.g. 4,8,12");
/// `--search NAME`: the assignment [`SearchMode`].
pub const SEARCH: Flag = Flag::new("--search", Kind::Search, "default: backtracking");
/// `--budget N`: logical check cap per instance.
pub const BUDGET: Flag = Flag::int("--budget", 1, "checks per instance (default: no cap)");

/// The sweep flags of the benchmark-driven binaries.
pub const SWEEP: [Flag; 6] = [QUICK, THREADS, PROFILE, TASK_COUNTS, SEARCH, BUDGET];

/// The checkpoint/quarantine flags of the orchestrated sweeps, read by
/// [`Args::orchestrator`] (DESIGN.md §11).
pub const ORCHESTRATION: [Flag; 5] = [
    Flag::new("--checkpoint-dir", Kind::Path, "journal shards here"),
    Flag::switch("--resume", "skip the journal's completed shards").requires("--checkpoint-dir"),
    Flag::int("--shard-size", 1, "instances per shard (default: 1024)"),
    Flag::int("--instance-timeout", 1, "quarantine instances over N ms"),
    Flag::int("--reservoir", 0, "witnesses kept per shard (default: all)"),
];

/// The flags a command line gave, each value checked against its row.
#[derive(Debug, PartialEq, Eq)]
pub struct Args {
    values: Vec<(&'static str, String)>,
}

impl Args {
    fn text(&self, name: &str) -> Option<&str> {
        let value = self.values.iter().find(|(n, _)| *n == name);
        value.map(|(_, v)| v.as_str())
    }

    /// Whether the flag `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// The value of `name` as a `T` (an integer, `f64` or `PathBuf`),
    /// if given. The value already passed its row's [`Kind`] check.
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        self.text(name)?.parse().ok()
    }

    /// The [`Kind::List`] value of `name`, if given.
    pub fn list(&self, name: &str) -> Option<Vec<usize>> {
        let items = self.text(name)?.split(',');
        items.map(|n| n.trim().parse().ok()).collect()
    }

    /// `--profile`, or the default `grid-snapped`.
    pub fn profile(&self) -> PeriodModel {
        let name = self.text("--profile");
        name.and_then(PeriodModel::parse).unwrap_or_default()
    }

    /// `--search` and `--budget`, defaulting to unbounded backtracking.
    pub fn search(&self) -> SearchConfig {
        let mode = self.text("--search").and_then(SearchMode::parse);
        SearchConfig::new(
            mode.unwrap_or_default(),
            self.get("--budget").unwrap_or(u64::MAX),
        )
    }

    /// `--threads`; absent or `0` is the host's available parallelism.
    pub fn threads(&self) -> usize {
        self.get("--threads")
            .filter(|&n| n > 0)
            .unwrap_or_else(available_threads)
    }

    /// The [`ORCHESTRATION`] flags over [`OrchestratorConfig::in_memory`].
    pub fn orchestrator(&self) -> OrchestratorConfig {
        let defaults = OrchestratorConfig::in_memory();
        OrchestratorConfig {
            checkpoint_dir: self.get::<PathBuf>("--checkpoint-dir"),
            resume: self.switch("--resume"),
            shard_size: self.get("--shard-size").unwrap_or(defaults.shard_size),
            reservoir: self.get("--reservoir").unwrap_or(defaults.reservoir),
            instance_timeout_ms: self.get("--instance-timeout"),
        }
    }
}

/// Parses the process arguments against `table` (the binary's flag
/// groups). Prints the generated usage and exits 0 on `--help`; prints
/// one line naming the offending argument and exits 2 on any rejection.
pub fn parse(table: &[&[Flag]]) -> Args {
    let mut argv = std::env::args_os();
    let prog = PathBuf::from(argv.next().unwrap_or_default());
    let prog = prog.file_name().unwrap_or_default().to_string_lossy();
    let argv: Result<Vec<String>, _> = argv.map(|a| a.into_string()).collect();
    let parsed = match argv {
        Ok(argv) => try_parse(table, &argv),
        Err(bad) => Err(format!("argument {bad:?} is not valid UTF-8")),
    };
    match parsed {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", usage(&prog, table));
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("{prog}: {msg}");
            std::process::exit(2);
        }
    }
}

/// Parses `argv` (without the program name) against `table`. `Ok(None)`
/// means `--help` was given; `Err` carries the rejection message.
fn try_parse(table: &[&[Flag]], argv: &[String]) -> Result<Option<Args>, String> {
    if argv.iter().any(|a| a == "--help") {
        return Ok(None);
    }
    let flags = || table.iter().flat_map(|group| group.iter());
    let mut args = Args { values: Vec::new() };
    let mut rest = argv.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            return Err(format!("unexpected argument {arg:?} (see --help)"));
        }
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (arg.as_str(), None),
        };
        let Some(flag) = flags().find(|f| f.name == name) else {
            return Err(unknown(name, flags()));
        };
        if args.switch(name) {
            return Err(format!("{name} given more than once"));
        }
        let expects = flag.kind.expects().1;
        let value = match (flag.kind, inline) {
            (Kind::Switch, Some(_)) => return Err(format!("{name} takes no value")),
            (Kind::Switch, None) => String::new(),
            (_, Some(value)) => value.to_string(),
            // A separate value may not look like a flag: `--n --quick`
            // is a missing value, not the value "--quick".
            (_, None) => match rest.next() {
                Some(value) if !value.starts_with("--") => value.clone(),
                _ => return Err(format!("{name} needs a value ({expects})")),
            },
        };
        if !flag.kind.accepts(&value) {
            let msg = format!("invalid value {value:?} for {name}: expected {expects}");
            return Err(msg);
        }
        args.values.push((flag.name, value));
    }
    for flag in flags().filter(|f| args.switch(f.name)) {
        if let Some(needed) = flag.requires.filter(|r| !args.switch(r)) {
            return Err(format!("{} requires {needed}", flag.name));
        }
    }
    Ok(Some(args))
}

/// The rejection for an unknown flag, suggesting the nearest known
/// name within two edits.
fn unknown<'a>(name: &str, known: impl Iterator<Item = &'a Flag>) -> String {
    match known.map(|f| (edit_distance(name, f.name), f.name)).min() {
        Some((distance, near)) if distance <= 2 => {
            format!("unknown flag {name} (did you mean {near}?)")
        }
        _ => format!("unknown flag {name} (see --help)"),
    }
}

/// Levenshtein distance over chars.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diagonal = i;
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let above = row[j + 1];
            row[j + 1] = (diagonal + usize::from(ca != cb))
                .min(row[j] + 1)
                .min(above + 1);
            diagonal = above;
        }
    }
    row[b.len()]
}

/// The `--help` text: one line per table row, then `--help` itself.
fn usage(prog: &str, table: &[&[Flag]]) -> String {
    let mut out = format!("usage: {prog} [FLAGS]\n\nflags:\n");
    for flag in table.iter().flat_map(|group| group.iter()) {
        let (placeholder, expects) = flag.kind.expects();
        let head = format!("{}{placeholder}", flag.name);
        out.push_str(&format!("  {head:<22} {}", flag.help));
        if let Kind::Profile | Kind::Search = flag.kind {
            out.push_str(&format!("; {expects}"));
        }
        if let Some(needed) = flag.requires {
            out.push_str(&format!("; requires {needed}"));
        }
        out.push('\n');
    }
    out + &format!("  {:<22} print this help and exit\n", "--help")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OrchestratorConfig, PeriodModel, SearchMode};
    use std::path::Path;

    /// A table exercising every kind: the sweep and orchestration
    /// groups plus one float and one path of its own.
    const OWN: [Flag; 2] = [
        Flag::new("--z", Kind::Float, "z threshold"),
        Flag::new("--corpus", Kind::Path, "corpus file"),
    ];
    const TABLE: [&[Flag]; 3] = [&SWEEP, &ORCHESTRATION, &OWN];

    fn parse(argv: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        try_parse(&TABLE, &argv).map(|args| args.expect("not --help"))
    }

    fn ok(argv: &[&str]) -> Args {
        parse(argv).unwrap_or_else(|e| panic!("{argv:?} rejected: {e}"))
    }

    /// Asserts `argv` is rejected with a message containing `needle`.
    fn rejects(argv: &[&str], needle: &str) {
        match parse(argv) {
            Ok(args) => panic!("{argv:?} accepted as {args:?}"),
            Err(msg) => assert!(msg.contains(needle), "{argv:?}: {msg:?} lacks {needle:?}"),
        }
    }

    #[test]
    fn task_counts_flag_parsing() {
        assert_eq!(ok(&[]).list("--n"), None);
        for (argv, want) in [
            (&["--n", "4"][..], vec![4]),
            (&["--n=4,8,12"][..], vec![4, 8, 12]),
            (&["--n", "4, 8"][..], vec![4, 8]),
        ] {
            assert_eq!(ok(argv).list("--n"), Some(want), "{argv:?}");
        }
        rejects(&["--n", "soup"], "invalid value \"soup\" for --n");
        rejects(&["--n", "0"], "invalid value \"0\" for --n");
        rejects(&["--n", "4,,8"], "invalid value");
        rejects(&["--n="], "invalid value \"\" for --n");
        rejects(&["--n"], "--n needs a value");
    }

    #[test]
    fn profile_flag_parsing() {
        assert_eq!(ok(&[]).profile(), PeriodModel::GridSnapped);
        for (argv, want) in [
            (&["--profile", "continuous"][..], PeriodModel::Continuous),
            (
                &["--profile=margin-tight", "--quick"][..],
                PeriodModel::MarginTight,
            ),
            (
                &["--quick", "--profile", "harmonic-stress"][..],
                PeriodModel::HarmonicStress,
            ),
        ] {
            assert_eq!(ok(argv).profile(), want, "{argv:?}");
        }
        // The error lists every name from PeriodModel::ALL.
        rejects(
            &["--profile", "soup"],
            "expected one of grid-snapped, continuous, harmonic-stress, margin-tight",
        );
        // A missing value is an error, not a silent default.
        rejects(&["--profile"], "--profile needs a value");
        rejects(&["--profile", "--quick"], "--profile needs a value");
    }

    #[test]
    fn search_flag_parsing() {
        assert_eq!(ok(&[]).search().mode, SearchMode::Backtracking);
        for (argv, want) in [
            (&["--search", "portfolio"][..], SearchMode::Portfolio),
            (&["--search=opa", "--quick"][..], SearchMode::Opa),
            (
                &["--quick", "--search", "backtracking"][..],
                SearchMode::Backtracking,
            ),
        ] {
            assert_eq!(ok(argv).search().mode, want, "{argv:?}");
        }
        rejects(
            &["--search", "soup"],
            "expected one of backtracking, portfolio, opa",
        );
        rejects(&["--search"], "--search needs a value");
    }

    #[test]
    fn budget_flag_parsing() {
        assert_eq!(ok(&[]).search().budget, u64::MAX);
        assert_eq!(ok(&["--budget", "50000"]).search().budget, 50_000);
        assert_eq!(ok(&["--budget=123", "--quick"]).search().budget, 123);
        // A zero budget could decide nothing: every instance truncated.
        rejects(
            &["--budget", "0"],
            "invalid value \"0\" for --budget: expected an integer >= 1",
        );
        rejects(&["--budget", "soup"], "invalid value \"soup\" for --budget");
        rejects(&["--budget", "-5"], "invalid value \"-5\"");
        rejects(&["--budget"], "--budget needs a value");
    }

    #[test]
    fn threads_flag_parsing() {
        assert_eq!(ok(&["--threads", "3"]).threads(), 3);
        assert_eq!(ok(&["--threads=7", "--quick"]).threads(), 7);
        let default = crate::parallel::available_threads();
        assert_eq!(ok(&[]).threads(), default);
        assert_eq!(ok(&["--threads", "0"]).threads(), default);
        // A non-numeric or missing value is rejected, never defaulted.
        rejects(
            &["--threads", "soup"],
            "invalid value \"soup\" for --threads",
        );
        rejects(&["--threads"], "--threads needs a value");
        rejects(&["--threads", "--quick"], "--threads needs a value");
    }

    #[test]
    fn orchestrator_flag_parsing() {
        assert_eq!(ok(&[]).orchestrator(), OrchestratorConfig::in_memory());
        let full = ok(&[
            "--checkpoint-dir",
            "ckpt",
            "--resume",
            "--shard-size=64",
            "--instance-timeout",
            "500",
            "--reservoir=16",
        ])
        .orchestrator();
        assert_eq!(full.checkpoint_dir.as_deref(), Some(Path::new("ckpt")));
        assert!(full.resume);
        assert_eq!(full.shard_size, 64);
        assert_eq!(full.instance_timeout_ms, Some(500));
        assert_eq!(full.reservoir, 16);
        // A zero-capacity reservoir is allowed (keep no witnesses).
        assert_eq!(ok(&["--reservoir", "0"]).orchestrator().reservoir, 0);
        for (bad, needle) in [
            (&["--resume"][..], "--resume requires --checkpoint-dir"),
            (&["--checkpoint-dir"][..], "--checkpoint-dir needs a value"),
            (&["--checkpoint-dir="][..], "expected a non-empty path"),
            (
                &["--shard-size", "0"][..],
                "invalid value \"0\" for --shard-size",
            ),
            (
                &["--shard-size", "soup"][..],
                "invalid value \"soup\" for --shard-size",
            ),
            (&["--instance-timeout", "0"][..], "for --instance-timeout"),
            (&["--reservoir", "soup"][..], "for --reservoir"),
        ] {
            rejects(bad, needle);
        }
    }

    #[test]
    fn equals_form_matches_separate_form() {
        let pairs: [(&[&str], &[&str]); 4] = [
            (&["--n", "4,8"], &["--n=4,8"]),
            (&["--z", "-1.5"], &["--z=-1.5"]),
            (&["--corpus", "a=b.txt"], &["--corpus=a=b.txt"]),
            (
                &["--checkpoint-dir", "c", "--resume"],
                &["--checkpoint-dir=c", "--resume"],
            ),
        ];
        for (spaced, joined) in pairs {
            assert_eq!(ok(spaced), ok(joined), "{spaced:?} vs {joined:?}");
        }
        assert_eq!(
            ok(&["--corpus=a=b.txt"]).get::<PathBuf>("--corpus"),
            Some(PathBuf::from("a=b.txt"))
        );
        rejects(&["--quick=yes"], "--quick takes no value");
        rejects(&["--quick="], "--quick takes no value");
    }

    #[test]
    fn repeated_flags_and_positionals_are_rejected() {
        rejects(&["--n", "4", "--n", "8"], "--n given more than once");
        rejects(&["--quick", "--quick"], "--quick given more than once");
        rejects(
            &["--threads=2", "--threads", "2"],
            "--threads given more than once",
        );
        rejects(&["--quick", "table"], "unexpected argument \"table\"");
        rejects(&["-h"], "unexpected argument \"-h\"");
        rejects(&["--budget", "5", "7"], "unexpected argument \"7\"");
    }

    #[test]
    fn unknown_flags_suggest_the_nearest_name() {
        rejects(&["--quik"], "unknown flag --quik (did you mean --quick?)");
        rejects(&["--thread", "2"], "(did you mean --threads?)");
        rejects(
            &["--chekpoint-dir=c"],
            "unknown flag --chekpoint-dir (did you mean --checkpoint-dir?)",
        );
        rejects(&["--verbose"], "unknown flag --verbose (see --help)");
        rejects(&["--"], "unknown flag --");
        // A flag another binary reads is unknown to a table without it.
        let argv = vec!["--threads".to_string(), "4".to_string()];
        let err = try_parse(&[&[QUICK]], &argv).expect_err("fig4 has no --threads");
        assert_eq!(err, "unknown flag --threads (see --help)");
    }

    #[test]
    fn floats_must_be_finite() {
        assert_eq!(ok(&["--z", "1.0"]).get::<f64>("--z"), Some(1.0));
        assert_eq!(ok(&["--z", "-2e-1"]).get::<f64>("--z"), Some(-0.2));
        for bad in ["nan", "NaN", "inf", "-inf", "1e999", "soup", ""] {
            rejects(&["--z", bad], "expected a finite number");
        }
    }

    #[test]
    fn help_wins_and_lists_every_flag() {
        let argv: Vec<String> = ["--quik", "--help"].iter().map(|s| s.to_string()).collect();
        assert_eq!(try_parse(&TABLE, &argv), Ok(None));
        let text = usage("bin", &TABLE);
        for flag in TABLE.iter().flat_map(|g| g.iter()) {
            assert!(text.contains(flag.name), "{} missing from usage", flag.name);
        }
        assert!(text.contains("--profile NAME"));
        assert!(text.contains("one of grid-snapped, continuous, harmonic-stress, margin-tight"));
        assert!(text.contains("--resume") && text.contains("requires --checkpoint-dir"));
    }

    #[test]
    fn edit_distance_is_levenshtein() {
        assert_eq!(edit_distance("--quik", "--quick"), 1);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
    }
}
