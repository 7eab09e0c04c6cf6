//! The `schemble` flag spec. A flag's field, default, name, metavar, parser
//! (which is its range check) and help text are one entry of `flags!`, from
//! which [`Cli`], [`FLAGS`], [`parse`] and [`usage`] are produced; method names
//! come from [`METHODS`], the table `schemble-baselines` shares with the `exp`
//! driver (`run` and `explain` accept every method); [`parse`] owns every
//! cross-flag rule. Hand-rolled to
//! keep the dependency set at the approved offline crates.

use crate::baselines::{Method, METHODS};
use crate::data::TaskKind;
use std::fmt::{Display, Write};
use std::ops::RangeInclusive;
use std::str::FromStr;

/// A subcommand; `COMMANDS` has each one's name and synopsis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    Run,
    Compare,
    Trace,
    Score,
    Serve,
    Loadtest,
    Explain,
}

const COMMANDS: &[(&str, Command, &str)] = &[
    ("run", Command::Run, "--method <METHOD> [--task <tm|vc|ir>] [options]"),
    ("compare", Command::Compare, "[--task <tm|vc|ir>] [options]"),
    ("trace", Command::Trace, "[--task <tm|vc|ir>] [options]"),
    ("score", Command::Score, "[--task <tm|vc|ir>] [options]"),
    ("serve", Command::Serve, "--method <METHOD> [--task <tm|vc|ir>] [serve options]"),
    ("loadtest", Command::Loadtest, "--method <METHOD> [--task <tm|vc|ir>] [serve options]"),
    ("explain", Command::Explain, "--query <ID> [--method <METHOD>] [--task <tm|vc|ir>]"),
];

/// One flag of the spec.
pub struct Flag {
    /// `--name`.
    pub name: &'static str,
    /// `<N>`-style value placeholder; empty for a switch, which takes none.
    pub metavar: &'static str,
    /// One line of usage text.
    pub help: &'static str,
    /// Parses, range-checks and stores the value (`""` for a switch).
    set: fn(&mut Cli, &str) -> Result<(), String>,
}

/// Declares [`Cli`], its defaults and [`FLAGS`] from one entry per flag:
/// `field: Type = default, "--name" "<METAVAR>" parser, "help";` with
/// `parser: fn(&str) -> Result<Type, String>`. A switch has an empty metavar.
macro_rules! flags {
    ($($section:literal { $($field:ident: $ty:ty = $default:expr,
        $name:literal $metavar:literal $parser:expr, $help:literal;)* })*) => {
        /// The parsed flags: one field per entry of [`FLAGS`].
        #[derive(Debug, Clone)]
        pub struct Cli {
            $($(#[doc = concat!("`", $help, "`")] pub $field: $ty,)*)*
        }

        impl Default for Cli {
            fn default() -> Self {
                Cli { $($($field: $default,)*)* }
            }
        }

        /// The flag spec, in usage order: `(section title, flags)`.
        pub const FLAGS: &[(&str, &[Flag])] = &[$(($section, &[$(Flag {
            name: $name,
            metavar: $metavar,
            help: $help,
            set: |cli, value| {
                let parser: fn(&str) -> Result<$ty, String> = $parser;
                cli.$field = parser(value)?;
                Ok(())
            },
        },)*]),)*];
    };
}

/// A number inside `range`; rejects non-numbers, NaN, and values outside it
/// (so ±inf and, for integer types, anything that overflows).
fn num<T: FromStr + PartialOrd + Display>(v: &str, range: RangeInclusive<T>) -> Result<T, String> {
    match v.parse::<T>() {
        Ok(x) if range.contains(&x) => Ok(x),
        _ => Err(format!("must be a number in [{}, {}], got '{v}'", range.start(), range.end())),
    }
}

fn on(_: &str) -> Result<bool, String> {
    Ok(true)
}

fn path(v: &str) -> Result<Option<String>, String> {
    Ok(Some(v.to_string()))
}

/// What a millisecond or rate flag may span: at least a microsecond (a
/// steal epoch that rounds to zero never advances) and far from overflowing
/// `u64` microseconds when summed.
const POSITIVE: RangeInclusive<f64> = 1e-3..=1e12;

flags! {
    "options" {
        task: TaskKind = TaskKind::TextMatching, "--task" "<tm|vc|ir>" |v| match v {
            "tm" => Ok(TaskKind::TextMatching),
            "vc" => Ok(TaskKind::VehicleCounting),
            "ir" => Ok(TaskKind::ImageRetrieval),
            _ => Err(format!("must be tm, vc or ir, got '{v}'")),
        }, "the application  (default tm, the paper's primary text-matching task)";
        method: Option<&'static Method> = None, "--method" "<METHOD>"
            |v| Method::named(v).map(Some).ok_or_else(|| format!("'{v}' is unknown")),
            "the pipeline to run (see methods above)";
        // Trace events count queries in u32.
        queries: usize = 3000, "--queries" "<N>" |v| num(v, 0..=u32::MAX as usize),
            "number of queries          (default 3000)";
        rate: Option<f64> = None, "--rate" "<R>" |v| num(v, POSITIVE).map(Some),
            "Poisson arrival rate /s    (default per task)";
        diurnal: bool = false, "--diurnal" "" on,
            "use the one-day bursty trace instead of Poisson";
        deadline_ms: Option<f64> = None, "--deadline-ms" "<D>" |v| num(v, POSITIVE).map(Some),
            "relative deadline          (default per task)";
        seed: u64 = 42, "--seed" "<S>" |v| num(v, 0..=u64::MAX),
            "root seed                  (default 42)";
        force_all: bool = false, "--force-all" "" on, "disable rejection (Table II mode)";
        fast_path: bool = false, "--fast-path" "" on,
            "enable the §VIII fast-path dispatch optimisation (schemble only)";
        anytime: bool = false, "--anytime" "" on,
            "quit a query's remaining tasks once confident of the answer (schemble only)";
        confidence_threshold: Option<f64> = None, "--confidence-threshold" "<C>"
            |v| num(v, 0.0..=1e12).map(Some),
            "anytime quit confidence; above 1 never quits  (default 0.98)";
        batch_max: Option<usize> = None, "--batch-max" "<N>" |v| num(v, 1..=usize::MAX).map(Some),
            "coalesce up to N tasks of one model per pass (schemble only; default 1: off)";
        batch_window_ms: Option<f64> = None, "--batch-window-ms" "<W>"
            |v| num(v, POSITIVE).map(Some),
            "how long an open batch waits for more members  (default 2)";
        csv: Option<String> = None, "--csv" "<PATH>" path,
            "(run) write per-query records to a CSV file";
    }
    "telemetry (run/serve/loadtest)" {
        trace_out: Option<String> = None, "--trace-out" "<PATH>" path,
            "write a Chrome trace-event JSON (open in Perfetto)";
        metrics_out: Option<String> = None, "--metrics-out" "<PATH>" path,
            "write a Prometheus text exposition";
        audit_out: Option<String> = None, "--audit-out" "<PATH>" path,
            "write the per-query scheduler audit log (NDJSON)";
    }
    "introspection (run/serve/loadtest)" {
        slo_out: Option<String> = None, "--slo-out" "<PATH>" path,
            "write the windowed SLO time-series (NDJSON)";
        // Converted to microseconds downstream.
        slo_window_ms: u64 = 1000, "--slo-window-ms" "<MS>" |v| num(v, 1..=u64::MAX / 1000),
            "SLO window width in backend millis    (default 1000)";
        obs_out: Option<String> = None, "--obs-out" "<PATH>" path,
            "write the introspection exposition (SLO totals, drift counters)";
        flight_recorder: Option<String> = None, "--flight-recorder" "<PATH>" path,
            "dump the last events to PATH on wedge, worker panic or breach";
        breach_expired: Option<u64> = None, "--breach-expired" "<N>"
            |v| num(v, 0..=u64::MAX).map(Some),
            "trip the recorder once N queries have expired";
    }
    "explain" {
        query: Option<u64> = None, "--query" "<ID>" |v| num(v, 0..=u64::MAX).map(Some),
            "the query whose plan lineage the seeded replay reconstructs";
    }
    "serve/loadtest options" {
        // A wall sleep of (simulated span / G) must fit a `Duration`.
        dilation: Option<f64> = None, "--dilation" "<G>" |v| num(v, 1e-6..=1e12).map(Some),
            "simulated seconds per wall second  (default: serve 1, loadtest 20)";
        virtual_clock: bool = false, "--virtual-clock" "" on,
            "deterministic virtual time: decisions match the DES";
        // A zero interval would print from a busy loop for the whole run.
        report_ms: Option<u64> = None, "--report-ms" "<MS>" |v| num(v, 1..=u64::MAX).map(Some),
            "print a live metrics snapshot every MS wall millis";
        trace: Option<String> = None, "--trace" "<T>" |v| match v {
            "one-day" | "poisson" => path(v),
            _ => Err(format!("must be one-day or poisson, got '{v}'")),
        }, "(loadtest) one-day | poisson   (default one-day)";
        shards: usize = 1, "--shards" "<S>" |v| num(v, 1..=usize::MAX),
            "run S engine shards behind a hash router (schemble only; default 1: off)";
        steal_epoch_ms: Option<f64> = None, "--steal-epoch-ms" "<E>" |v| num(v, POSITIVE).map(Some),
            "overloaded shards hand queued queries to idle ones every E virtual ms";
        skew: Option<f64> = None, "--skew" "<THETA>" |v| num(v, 0.0..=1e12).map(Some),
            "re-key the workload by a Zipf(THETA) draw over 64 hot keys (try 2.0)";
    }
    "fault injection (run/serve/loadtest)" {
        fault_plan: Option<String> = None, "--fault-plan" "<PATH>" path,
            "seeded crash/straggle/transient/timeout-q schedule (see DESIGN.md)";
        task_timeout_q: Option<f64> = None, "--task-timeout-q" "<Q>" |v| num(v, 0.0..=1.0).map(Some),
            "kill tasks exceeding this profiled latency quantile, in [0,1]";
        max_retries: Option<u32> = None, "--max-retries" "<N>" |v| num(v, 0..=u32::MAX).map(Some),
            "re-dispatch a failed task at most N times (default 2)";
    }
}

impl Cli {
    /// True when any telemetry or introspection export was requested.
    pub fn wants_export(&self) -> bool {
        let exports =
            [&self.trace_out, &self.metrics_out, &self.audit_out, &self.slo_out, &self.obs_out];
        exports.iter().any(|path| path.is_some())
    }

    /// The selected method; `explain` falls back to `schemble`, and [`parse`]
    /// has rejected a missing `--method` where one is required.
    pub fn method(&self) -> &'static Method {
        self.method.unwrap_or_else(|| Method::named("schemble").expect("in the table"))
    }

    /// The rules that span more than one flag, or a flag and the subcommand.
    fn check(&self, command: Command) -> Result<(), String> {
        use Command::*;
        let runs = matches!(command, Run | Serve | Loadtest);
        let exports = self.wants_export() || self.flight_recorder.is_some();
        let schemble = self.method.is_none_or(Method::is_schemble);
        let sharded = self.shards > 1;
        // Trace events carry executor ids as u16; shard s owns s*m .. (s+1)*m.
        let executors = || self.shards.saturating_mul(self.task.ensemble(self.seed).m());
        let fits_u16 = !sharded || executors() <= usize::from(u16::MAX) + 1;
        let served = format!("--method {}", method_names(true));
        // (given, what, satisfied, its requirement)
        let rules = [
            (runs, "this subcommand", self.method.is_some(), "--method"),
            (command == Explain, "explain", self.query.is_some(), "--query"),
            (
                self.confidence_threshold.is_some(),
                "--confidence-threshold",
                self.anytime,
                "--anytime",
            ),
            (
                self.batch_window_ms.is_some(),
                "--batch-window-ms",
                self.batch_max.is_some(),
                "--batch-max",
            ),
            (self.steal_epoch_ms.is_some(), "--steal-epoch-ms", sharded, "--shards > 1"),
            (exports, "an export or --flight-recorder", runs, "run, serve or loadtest"),
            (sharded, "--shards", runs || command == Explain, "run, serve, loadtest or explain"),
            (self.anytime, "--anytime", schemble, "--method schemble"),
            (self.batch_max.is_some(), "--batch-max", schemble, "--method schemble"),
            (sharded, "--shards", schemble, "--method schemble"),
            (matches!(command, Serve | Loadtest), "the runtime", self.method().serve, &served),
            (sharded, "--shards", fits_u16, "shards x base models to fit a 16-bit executor id"),
        ];
        match rules.iter().find(|(given, _, satisfied, _)| *given && !*satisfied) {
            Some((_, what, _, requirement)) => Err(format!("{what} requires {requirement}")),
            None => Ok(()),
        }
    }
}

/// The methods `serve`/`loadtest` accept (`true`), or the rest.
fn method_names(serve: bool) -> String {
    let names = METHODS.iter().filter(|m| m.serve == serve).map(|m| m.name);
    names.collect::<Vec<_>>().join(" | ")
}

/// The usage text, generated from `COMMANDS`, [`METHODS`] and [`FLAGS`].
pub fn usage() -> String {
    let mut out = String::from("usage:\n");
    for (name, _, synopsis) in COMMANDS {
        let _ = writeln!(out, "  schemble {name:<8} {synopsis}");
    }
    let _ = write!(
        out,
        "\nmethods:\n  {}   (every subcommand)\n  {}   (run/explain only)\n",
        method_names(true),
        method_names(false)
    );
    for (title, flags) in FLAGS {
        let _ = writeln!(out, "\n{title}:");
        for flag in *flags {
            let head = format!("{} {}", flag.name, flag.metavar);
            let _ = writeln!(out, "  {:<26} {}", head.trim_end(), flag.help);
        }
    }
    out
}

/// Parses `<command> [flags…]`. The last occurrence of a repeated flag wins.
pub fn parse(args: &[String]) -> Result<(Command, Cli), String> {
    let (name, rest) = args.split_first().ok_or("missing command")?;
    let command = COMMANDS.iter().find(|c| c.0 == name).map(|c| c.1);
    let command = command.ok_or_else(|| format!("unknown command '{name}'"))?;
    let mut cli = Cli::default();
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        let flag = FLAGS.iter().flat_map(|(_, flags)| flags.iter()).find(|f| f.name == arg);
        let flag = flag.ok_or_else(|| format!("unknown option '{arg}'"))?;
        let value = match flag.metavar {
            "" => "",
            _ => rest.next().ok_or_else(|| format!("{arg} needs a value"))?,
        };
        (flag.set)(&mut cli, value).map_err(|e| format!("{arg} {e}"))?;
    }
    cli.check(command)?;
    if command == Command::Loadtest {
        cli.diurnal = cli.trace.as_deref() != Some("poisson");
    }
    Ok((command, cli))
}
