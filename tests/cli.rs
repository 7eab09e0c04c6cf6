//! The `schemble` CLI, driven in-process: the flag spec never panics on
//! hostile argument vectors, every range check and cross-flag rule rejects
//! with an error, the usage text and the README agree with the spec, every
//! subcommand runs a 150-query fixture to completion with every query
//! accounted for, `run` writes what `serve --virtual-clock` writes, and a
//! hostile fault plan is an error or a conserved run, never a panic.

use proptest::prelude::*;
use schemble::cli::{self, Cli, Command, FLAGS, METHODS};
use std::path::PathBuf;

fn argv(line: &str) -> Vec<String> {
    line.split_whitespace().map(String::from).collect()
}

fn parse(line: &str) -> Result<(Command, Cli), String> {
    cli::parse(&argv(line))
}

fn flag_names() -> Vec<&'static str> {
    FLAGS.iter().flat_map(|(_, flags)| flags.iter().map(|f| f.name)).collect()
}

/// A scratch directory unique to one test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("schemble-cli-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating the scratch directory");
    dir
}

/// Values a hostile operator (or a broken script) hands to a numeric flag.
const HOSTILE: &[&str] = &[
    "nan",
    "NaN",
    "inf",
    "-inf",
    "-5",
    "-0.0",
    "0",
    "1e-300",
    "1e300",
    "18446744073709551615",
    "18446744073709551616",
    "340282366920938463463374607431768211456",
    "",
    " ",
    "abc",
    "--",
    "0x10",
    "1_000",
    "٣",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any argument vector built from the spec's own vocabulary, hostile
    /// values and junk parses to `Ok` or `Err` — never a panic.
    #[test]
    fn parse_never_panics(picks in collection::vec((0usize..6, any::<u32>(), any::<u64>()), 0..14)) {
        let commands = ["run", "compare", "trace", "score", "serve", "loadtest", "explain", "nope"];
        let flags = flag_names();
        let benign = ["2", "0.5", "150", "tm", "vc", "ir", "one-day", "poisson", "/dev/null"];
        let mut args = vec![commands[picks.len() % commands.len()].to_string()];
        for (class, pick, raw) in picks {
            let pick = pick as usize;
            args.push(match class {
                0 => flags[pick % flags.len()].to_string(),
                1 => HOSTILE[pick % HOSTILE.len()].to_string(),
                2 => METHODS[pick % METHODS.len()].name.to_string(),
                3 => benign[pick % benign.len()].to_string(),
                4 => raw.to_string(),
                _ => format!("--{raw:x}"),
            });
        }
        let _ = cli::parse(&args);
    }
}

#[test]
fn every_numeric_flag_rejects_hostile_values() {
    // (flag, a prefix that makes the flag legal, values that must be rejected)
    let zero_and_below = ["nan", "inf", "-inf", "0", "-5", "1e-300", "1e300", "", "abc"];
    let cases: &[(&str, &str, &[&str])] = &[
        ("--rate", "run --method schemble", &zero_and_below),
        ("--deadline-ms", "run --method schemble", &zero_and_below),
        ("--dilation", "serve --method schemble", &zero_and_below),
        ("--batch-window-ms", "run --method schemble --batch-max 4", &zero_and_below),
        ("--steal-epoch-ms", "run --method schemble --shards 2", &zero_and_below),
        ("--confidence-threshold", "run --method schemble --anytime", &["nan", "inf", "-0.1", "x"]),
        ("--skew", "run --method schemble", &["nan", "inf", "-1", "x"]),
        ("--task-timeout-q", "serve --method schemble", &["nan", "inf", "-0.1", "1.1", "x"]),
        ("--slo-window-ms", "run --method schemble", &["0", "-1", "18446744073709551615", "1.5"]),
        ("--shards", "run --method schemble", &["0", "-1", "70000", "21846", "1.5", "nan"]),
        ("--batch-max", "run --method schemble", &["0", "-1", "nan", "99999999999999999999"]),
        (
            "--queries",
            "run --method schemble",
            &["-1", "18446744073709551615", "4294967296", "1e3"],
        ),
        ("--seed", "run --method schemble", &["-1", "18446744073709551616", "x"]),
        ("--max-retries", "serve --method schemble", &["-1", "4294967296", "x"]),
        ("--breach-expired", "run --method schemble --flight-recorder f", &["-1", "x"]),
        ("--report-ms", "serve --method schemble", &["0", "-1", "0.5", "x"]),
        ("--query", "explain", &["-1", "x", "18446744073709551616"]),
    ];
    for (flag, prefix, bad) in cases {
        for value in *bad {
            let mut args = argv(prefix);
            args.extend([flag.to_string(), value.to_string()]);
            let err = cli::parse(&args).expect_err(&format!("{flag} {value:?} was accepted"));
            assert!(err.contains(flag), "{flag} {value:?}: error does not name the flag: {err}");
        }
    }
    // The edges that must stay legal.
    for ok in [
        "run --method schemble --shards 21845",
        "run --method schemble --task ir --shards 32768",
        "run --method schemble --anytime --confidence-threshold 0",
        "run --method schemble --anytime --confidence-threshold 1.5",
        "run --method schemble --skew 0",
        "serve --method schemble --task-timeout-q 0 --dilation 1e-6",
        "run --method schemble --queries 0 --slo-window-ms 1 --batch-max 1",
    ] {
        parse(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
    }
}

#[test]
fn every_cross_flag_rule_rejects() {
    let cases = [
        ("run", "requires --method"),
        ("serve --virtual-clock", "requires --method"),
        ("loadtest", "requires --method"),
        ("explain", "requires --query"),
        ("run --method schemble --confidence-threshold 0.9", "requires --anytime"),
        ("run --method schemble --batch-window-ms 2", "requires --batch-max"),
        ("run --method schemble --steal-epoch-ms 20", "requires --shards > 1"),
        ("run --method schemble --shards 1 --steal-epoch-ms 20", "requires --shards > 1"),
        ("compare --trace-out t.json", "requires run, serve or loadtest"),
        ("trace --audit-out a", "requires run, serve or loadtest"),
        ("score --metrics-out m", "requires run, serve or loadtest"),
        ("explain --query 1 --slo-out s", "requires run, serve or loadtest"),
        ("compare --obs-out o", "requires run, serve or loadtest"),
        ("trace --flight-recorder f", "requires run, serve or loadtest"),
        ("compare --shards 2", "requires run, serve, loadtest or explain"),
        ("run --method original --anytime", "--anytime requires --method schemble"),
        ("run --method des --batch-max 4", "--batch-max requires --method schemble"),
        ("serve --method original --shards 2", "--shards requires --method schemble"),
        ("explain --query 1 --method static --shards 2", "--shards requires --method schemble"),
        ("serve --method schemble-ea", "the runtime requires --method original"),
        ("loadtest --method greedy-edf", "the runtime requires --method original"),
        ("run --method schemble --shards 21846", "16-bit executor id"),
        ("run --method schemble --task ir --shards 32769", "16-bit executor id"),
        ("run --method nope", "--method 'nope' is unknown"),
        ("run --method schemble --task xx", "--task must be tm, vc or ir"),
        ("loadtest --method schemble --trace weekly", "--trace must be one-day or poisson"),
        ("run --method schemble --frobnicate", "unknown option '--frobnicate'"),
        ("run --method schemble --queries", "--queries needs a value"),
        ("frobnicate --queries 3", "unknown command 'frobnicate'"),
        ("", "missing command"),
    ];
    for (line, needle) in cases {
        let err = parse(line).expect_err(&format!("{line:?} was accepted"));
        assert!(err.contains(needle), "{line:?}: expected {needle:?} in {err:?}");
    }
}

#[test]
fn defaults_and_last_value_wins() {
    let (command, cli) = parse("compare").expect("bare compare");
    assert_eq!(command, Command::Compare);
    assert_eq!((cli.queries, cli.seed, cli.shards, cli.slo_window_ms), (3000, 42, 1, 1000));
    assert!(!cli.diurnal && cli.method.is_none() && cli.rate.is_none() && !cli.wants_export());
    assert_eq!(cli.method().name, "schemble", "explain's default method");

    let (_, cli) =
        parse("run --method original --queries 9 --method schemble --queries 7 --rate 3 --rate 4")
            .expect("repeated flags");
    assert_eq!((cli.method().name, cli.queries, cli.rate), ("schemble", 7, Some(4.0)));

    // `loadtest` takes its arrival process from --trace, one-day by default.
    assert!(parse("loadtest --method schemble").expect("loadtest").1.diurnal);
    assert!(
        !parse("loadtest --method schemble --diurnal --trace poisson").expect("poisson").1.diurnal
    );
    assert!(!parse("serve --method schemble").expect("serve").1.diurnal);
}

/// Every `--flag` token in `text`, with the `<METAVAR>` that follows it
/// inside the same back-quoted span, if any.
fn flag_mentions(text: &str) -> Vec<(String, Option<String>)> {
    let mut found = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("--") {
        let preceded_by_word =
            rest[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '-');
        rest = &rest[at + 2..];
        let name: String =
            rest.chars().take_while(|c| c.is_ascii_lowercase() || *c == '-').collect();
        if preceded_by_word || name.is_empty() || name.ends_with('-') {
            continue;
        }
        let after = &rest[name.len()..];
        let metavar = after.strip_prefix(" <").and_then(|m| m.split_once('>')).map(|(m, _)| m);
        found.push((format!("--{name}"), metavar.map(|m| format!("<{m}>"))));
    }
    found
}

#[test]
fn usage_and_readme_agree_with_the_spec() {
    let usage = cli::usage();
    let flags: Vec<_> = FLAGS.iter().flat_map(|(_, flags)| flags.iter()).collect();
    assert_eq!(flags.len(), 33, "the flag count is part of the CLI's contract");
    for flag in &flags {
        let head = format!("  {} {}", flag.name, flag.metavar);
        assert!(usage.contains(head.trim_end()), "usage is missing {head:?}");
        assert!(!flag.help.is_empty(), "{} has no help text", flag.name);
    }
    for method in METHODS {
        assert!(usage.contains(method.name), "usage is missing method {}", method.name);
    }
    for command in ["run", "compare", "trace", "score", "serve", "loadtest", "explain"] {
        assert!(usage.contains(&format!("  schemble {command}")), "usage is missing {command}");
    }

    // Every flag the README mentions exists, and where the README shows a
    // metavar (its flag tables do) it is the spec's.
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md");
    // Flags of cargo, not of `schemble`.
    let foreign = ["--release", "--bin", "--example", "--workspace"];
    let mut table_rows = 0;
    for line in readme.lines() {
        for (nth, (name, metavar)) in flag_mentions(line).into_iter().enumerate() {
            if foreign.contains(&name.as_str()) {
                continue;
            }
            let flag = flags.iter().find(|f| f.name == name);
            let flag =
                flag.unwrap_or_else(|| panic!("README mentions unknown flag {name}: {line}"));
            if line.starts_with("| `--") && nth == 0 {
                table_rows += 1;
                assert_eq!(metavar.as_deref().unwrap_or(""), flag.metavar, "README row: {line}");
            } else if let Some(metavar) = metavar {
                assert_eq!(metavar, flag.metavar, "README line: {line}");
            }
        }
    }
    assert!(table_rows >= 6, "the README's three flag tables went missing ({table_rows} rows)");
}

/// Runs one command line in-process.
fn sh(line: &str) -> Result<(), String> {
    cli::run(&argv(line))
}

/// Asserts the audit log at `path` accounts for `queries` queries, each
/// exactly once and none left open.
fn assert_conserved(path: &std::path::Path, queries: usize) {
    let audit = std::fs::read_to_string(path).expect("audit log");
    assert_eq!(audit.lines().count(), queries, "one audit line per query");
    for (id, line) in audit.lines().enumerate() {
        assert!(line.starts_with(&format!("{{\"query\":{id},")), "ids ascend from 0: {line}");
        assert!(!line.contains("\"outcome\":\"open\""), "query left open: {line}");
    }
}

/// Training the Schemble artifacts is what a debug-profile run costs (~5 s),
/// so the cases below spend Schemble-family runs only where the family is
/// the point.
const FIXTURE: &str = "--queries 150 --rate 60";

#[test]
fn compare_trace_and_score_run_the_fixture() {
    // `compare` runs Table I's six methods, two of them Schemble variants.
    sh(&format!("compare {FIXTURE}")).expect("compare");
    sh(&format!("trace {FIXTURE} --task vc")).expect("trace");
    sh(&format!("score {FIXTURE} --task ir")).expect("score");
}

#[test]
fn run_runs_the_fixture_and_writes_every_export() {
    let dir = scratch("des");
    let path = |name: &str| dir.join(name).display().to_string();
    for method in ["original", "static", "des", "gating", "schemble-oracle", "greedy-sjf"] {
        let audit = path(&format!("{method}.ndjson"));
        sh(&format!("run --method {method} {FIXTURE} --audit-out {audit}"))
            .unwrap_or_else(|e| panic!("run --method {method}: {e}"));
        assert_conserved(audit.as_ref(), 150);
    }
    // Every export flag at once, plus --csv and an armed recorder.
    sh(&format!(
        "run --method schemble {FIXTURE} --fast-path --force-all --trace-out {} --metrics-out {} \
         --audit-out {} --slo-out {} --slo-window-ms 500 --obs-out {} --csv {} \
         --flight-recorder {} --breach-expired 1000",
        path("t.json"),
        path("m.prom"),
        path("a.ndjson"),
        path("s.ndjson"),
        path("o.prom"),
        path("r.csv"),
        path("fr.json"),
    ))
    .expect("run with every export");
    assert_conserved(path("a.ndjson").as_ref(), 150);
    let csv = std::fs::read_to_string(path("r.csv")).expect("csv");
    assert_eq!(csv.lines().count(), 151, "header + one record per query");
    for name in ["t.json", "m.prom", "s.ndjson", "o.prom"] {
        assert!(std::fs::metadata(path(name)).expect(name).len() > 0, "{name} is empty");
    }
    assert!(!dir.join("fr.json").exists(), "an untripped recorder writes nothing");
    std::fs::remove_dir_all(dir).expect("cleanup");
}

#[test]
fn runtime_subcommands_run_the_fixture() {
    let dir = scratch("runtime");
    let audit = dir.join("a.ndjson").display().to_string();
    // `schemble` is served by the wall-clock run and the loadtest below.
    for method in METHODS.iter().filter(|m| m.serve && !m.is_schemble()) {
        let serve = format!("serve --method {} --virtual-clock", method.name);
        sh(&format!("{serve} {FIXTURE} --audit-out {audit}"))
            .unwrap_or_else(|e| panic!("{serve}: {e}"));
        assert_conserved(audit.as_ref(), 150);
    }
    sh(&format!("loadtest --method schemble --virtual-clock {FIXTURE} --trace poisson"))
        .expect("loadtest, virtual clock");
    sh(&format!("loadtest --method original --virtual-clock {FIXTURE}")).expect("one-day loadtest");
    // The only wall-clock run: 2.5 simulated seconds at 50x.
    sh(&format!("serve --method schemble {FIXTURE} --dilation 50 --audit-out {audit}"))
        .expect("wall-clock serve");
    assert_conserved(audit.as_ref(), 150);
    std::fs::remove_dir_all(dir).expect("cleanup");
}

#[test]
fn every_optional_feature_at_once_conserves_queries() {
    let dir = scratch("features");
    let audit = dir.join("a.ndjson").display().to_string();
    let faults = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/faults");
    let features = "--method schemble --queries 150 --rate 140 --shards 2 --skew 1.2 \
                    --steal-epoch-ms 50 --batch-max 8 --batch-window-ms 3 --anytime \
                    --confidence-threshold 0.95 --max-retries 3 --task-timeout-q 0.99";
    for (command, plan) in [
        ("run", "gauntlet.plan"),
        ("serve --virtual-clock", "blackout.plan"),
        ("loadtest --virtual-clock --trace poisson", "gauntlet.plan"),
    ] {
        sh(&format!("{command} {features} --fault-plan {faults}/{plan} --audit-out {audit}"))
            .unwrap_or_else(|e| panic!("{command} under {plan}: {e}"));
        assert_conserved(audit.as_ref(), 150);
    }
    sh(&format!("explain --query 40 {features}")).expect("sharded explain");
    sh(&format!("serve --method original {FIXTURE} --virtual-clock --fault-plan {faults}/no.plan"))
        .expect_err("a missing fault plan is an error, not a panic");
    std::fs::remove_dir_all(dir).expect("cleanup");
}

/// The metrics exposition at `path` without the scheduler's wall-clock
/// self-profile (`schemble_sched_plan_*`), the only lines that differ
/// between two runs of one command line.
fn stable_metrics(path: &str) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("metrics exposition");
    let timed = |line: &&str| {
        let name = line.trim_start_matches("# HELP ").trim_start_matches("# TYPE ");
        name.starts_with("schemble_sched_plan_")
    };
    text.lines().filter(|line| !timed(line)).map(String::from).collect()
}

/// The per-executor samples of gauge or counter `name` in an exposition.
fn per_executor(metrics: &[String], name: &str) -> Vec<f64> {
    let samples = metrics.iter().filter(|line| line.starts_with(&format!("{name}{{")));
    samples.map(|line| line.rsplit(' ').next().unwrap().parse().expect("a number")).collect()
}

/// Runs `flags` as `run` and as `serve --virtual-clock`, asserts the two
/// wrote the same audit log and (modulo the self-profile) the same metrics,
/// and returns `run`'s: `(metrics lines, audit log)`.
fn run_and_serve_agree(dir: &std::path::Path, flags: &str) -> (Vec<String>, String) {
    let path = |name: &str| dir.join(name).display().to_string();
    let views = [("run", "run"), ("serve", "serve --virtual-clock")].map(|(view, command)| {
        let (metrics, audit) = (path(&format!("{view}.prom")), path(&format!("{view}.ndjson")));
        sh(&format!("{command} {flags} --metrics-out {metrics} --audit-out {audit}"))
            .unwrap_or_else(|e| panic!("{command} {flags}: {e}"));
        (stable_metrics(&metrics), std::fs::read_to_string(audit).expect("audit log"))
    });
    let [(run, audit), (serve, serve_audit)] = views;
    for (ours, theirs) in run.iter().zip(&serve) {
        assert_eq!(ours, theirs, "run (left) and serve (right) export different metrics");
    }
    assert_eq!(run.len(), serve.len(), "one exposition is a prefix of the other");
    assert!(audit == serve_audit, "run and serve wrote different audit logs");
    (run, audit)
}

/// At the parent commit `run` rebuilt its metrics from the event stream and
/// charged every member of a batch the whole pass: executors busier than
/// the run was long, every utilisation gauge clamped to 1.
#[test]
fn run_exports_the_busy_time_the_executors_counted() {
    let dir = scratch("busy");
    let flags = "--method schemble --queries 150 --rate 140 --batch-max 8 --anytime";
    let (metrics, _) = run_and_serve_agree(&dir, flags);
    // The least utilised executor's gauge is the likeliest to be unclamped,
    // and then busy / utilisation is the elapsed time.
    let busy = per_executor(&metrics, "schemble_executor_busy_seconds_total");
    let utilization = per_executor(&metrics, "schemble_executor_utilization");
    let idlest = (0..busy.len()).min_by(|&a, &b| utilization[a].total_cmp(&utilization[b]));
    let idlest = idlest.expect("executors");
    assert!(utilization[idlest] > 0.0 && utilization[idlest] < 1.0, "gauges {utilization:?}");
    let elapsed = busy[idlest] / utilization[idlest];
    for (k, busy) in busy.iter().enumerate() {
        assert!(*busy <= elapsed * (1.0 + 1e-9), "executor {k} busy {busy}s of a {elapsed}s run");
    }
    std::fs::remove_dir_all(dir).expect("cleanup");
}

/// At the parent commit only `run --shards S` reached the code that injects
/// faults; without it the plan was read and ignored.
#[test]
fn run_injects_its_fault_plan() {
    let dir = scratch("faulted");
    let plan = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/faults/gauntlet.plan");
    let (_, audit) =
        run_and_serve_agree(&dir, &format!("--method schemble {FIXTURE} --fault-plan {plan}"));
    // Some query lost a task and was retried or answered from what was left.
    let hit = |line: &str| !line.contains("\"retries\":0,") || line.contains("\"degraded\"");
    assert!(audit.lines().any(hit), "no task failed under the gauntlet plan");
    assert_conserved(&dir.join("run.ndjson"), 150);
    std::fs::remove_dir_all(dir).expect("cleanup");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any plan text built from the format's own vocabulary and hostile
    /// numbers is rejected with an error naming the plan, or runs 50 queries
    /// to the end with every one accounted for — never a panic, whichever
    /// engine meets it (the two baselines train nothing, so they are cheap).
    #[test]
    fn a_hostile_fault_plan_is_an_error_or_a_conserved_run(
        lines in collection::vec(
            (0usize..10, any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
            1..4,
        ),
        method in 0usize..3,
    ) {
        let method = ["schemble", "original", "static"][method];
        // What each field mostly holds: legal values, so that a fair share
        // of the plans parse and run, then an edge or two beyond.
        let executor: &[&str] = &["0", "1", "2", "0", "1", "2", "99"];
        let from: &[&str] = &["0", "0.2", "0.5", "1", "0"];
        let until: &[&str] = &["1.5", "3", "9", "1e9", "1e30"];
        let multiplier: &[&str] = &["1", "1.5", "4.0", "6.0", "1e6", "1e30"];
        let probability: &[&str] = &["0", "0.03", "0.5", "0.9", "1"];
        let quantile: &[&str] = &["0", "0.5", "0.95", "1", "1e-9", "4.0"];
        let crash: (&str, &[&[&str]]) = ("crash", &[executor, from, until]);
        let straggle: (&str, &[&[&str]]) = ("straggle", &[executor, from, until, multiplier]);
        let directives = [
            crash,
            crash,
            crash,
            straggle,
            straggle,
            straggle,
            ("transient", &[probability]),
            ("timeout-q", &[quantile]),
            ("# note", &[]),
            ("flarp", &[from]),
        ];
        let mut text = String::new();
        for (kind, a, b, c, d) in lines {
            let (directive, fields) = directives[kind];
            text.push_str(directive);
            for (values, pick) in fields.iter().zip([a, b, c, d].map(|pick| pick as usize)) {
                // Now and then any hostile value at all, or a missing field.
                match pick % 16 {
                    0 => text.push_str(&format!(" {}", HOSTILE[pick % HOSTILE.len()])),
                    1 => {}
                    _ => text.push_str(&format!(" {}", values[pick % values.len()])),
                }
            }
            text.push('\n');
        }
        let dir = scratch("plans");
        let (plan, audit) = (dir.join("hostile.plan"), dir.join("a.ndjson"));
        std::fs::write(&plan, &text).expect("writing the plan");
        let run = format!(
            "run --method {method} --queries 50 --rate 60 --fault-plan {} --audit-out {}",
            plan.display(),
            audit.display()
        );
        match sh(&run) {
            Ok(()) => assert_conserved(&audit, 50),
            Err(e) => {
                prop_assert!(e.starts_with("fault plan"), "{e:?} for {method} under {text:?}")
            }
        }
        std::fs::remove_dir_all(dir).expect("cleanup");
    }
}

/// At the parent commit `loadtest --shards S` compared S executor replicas
/// against the one-replica DES and reported `MISMATCH` for this healthy run.
#[test]
fn a_sharded_loadtest_agrees_with_its_sharded_reference() {
    sh("loadtest --method schemble --virtual-clock --queries 150 --trace poisson --rate 200 --shards 2")
        .expect("the virtual-clock shard engines are their own deterministic reference");
}

/// The diurnal trace thins its arrivals: `--queries 300` yields 286 queries.
/// At the parent commit the miss message trusted `--queries` and blamed the
/// trace ring ("dropped 0 events") for an id the workload never had.
#[test]
fn explain_reports_the_generated_workload_size() {
    let explain = "explain --method original --queries 300";
    sh(&format!("{explain} --diurnal --query 17")).expect("query 17 exists");
    let err = sh(&format!("{explain} --diurnal --query 295")).expect_err("no query 295");
    assert!(err.contains("never arrived (the workload has ids 0..286)"), "{err}");
    let err = sh(&format!("{explain} --query 300")).expect_err("ids stop at 299");
    assert!(err.contains("never arrived (the workload has ids 0..300)"), "{err}");
}
