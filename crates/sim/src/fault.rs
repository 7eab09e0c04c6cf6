//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] describes *what goes wrong and when*: per-executor
//! crash/recover windows, latency-multiplier straggler episodes, and a
//! transient task-failure probability. The plan is pure data; both the DES
//! backend and the threaded serving backend interpret it through a shared
//! [`FaultState`], which owns the single `"faults"` RNG stream. Because the
//! two backends submit tasks in the same order and call [`FaultState`] at the
//! same points, a DES run and a virtual-clock serve run under the same plan
//! and seed stay bit-identical.
//!
//! Semantics:
//!
//! * **Crash windows** — the executor is *down* on `[from, until)`. The task
//!   it was running is killed (and reported failed), its backlog is dropped
//!   (each entry reported failed), and no new work may start until `until`.
//! * **Straggler episodes** — task durations sampled while an episode is
//!   active are multiplied by `multiplier` (the max over overlapping
//!   episodes). The multiplier is applied at *submission* time, matching the
//!   backends' sampling-at-submission contract.
//! * **Transient failures** — each submitted task independently fails with
//!   probability `transient_p`, part-way through its execution.
//! * **Timeouts** — orthogonal to the plan file: a task whose (post-fault)
//!   duration exceeds the executor's timeout (a profiled latency quantile,
//!   see [`LatencyModel::quantile`]) is killed at the timeout and reported
//!   failed. This is how stragglers are actually *detected* by the runtime.

use crate::latency::LatencyModel;
use crate::rng::stream_rng;
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

/// One crash/recover window: the executor is down on `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashWindow {
    /// Executor index the window applies to.
    pub executor: usize,
    /// Instant the executor goes down.
    pub from: SimTime,
    /// Instant the executor recovers.
    pub until: SimTime,
}

/// One straggler episode: task durations sampled on `[from, until)` are
/// stretched by `multiplier`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerEpisode {
    /// Executor index the episode applies to.
    pub executor: usize,
    /// Episode start.
    pub from: SimTime,
    /// Episode end.
    pub until: SimTime,
    /// Latency multiplier (≥ 1.0).
    pub multiplier: f64,
}

/// A deterministic fault schedule, shared verbatim by both backends.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Crash/recover windows.
    pub crashes: Vec<CrashWindow>,
    /// Straggler episodes.
    pub stragglers: Vec<StragglerEpisode>,
    /// Per-task transient failure probability in `[0, 1)`.
    pub transient_p: f64,
    /// Per-task timeout as a quantile of the executor's latency model
    /// (e.g. `0.99`). `None` disables timeouts.
    pub timeout_quantile: Option<f64>,
}

/// An up/down transition derived from the plan's crash windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultTransition {
    /// When the transition happens.
    pub at: SimTime,
    /// Which executor transitions.
    pub executor: usize,
    /// `true` = comes back up, `false` = goes down.
    pub up: bool,
}

impl FaultPlan {
    /// True when the plan injects nothing — backends with a no-op plan behave
    /// byte-identically to backends with no plan at all.
    pub fn is_noop(&self) -> bool {
        self.crashes.is_empty()
            && self.stragglers.is_empty()
            && self.transient_p == 0.0
            && self.timeout_quantile.is_none()
    }

    /// Parses the line-oriented fault-plan file format:
    ///
    /// ```text
    /// # comment
    /// crash <executor> <from_secs> <until_secs>
    /// straggle <executor> <from_secs> <until_secs> <multiplier>
    /// transient <probability>
    /// timeout-q <quantile>
    /// ```
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| format!("fault plan line {}: {msg}: `{raw}`", i + 1);
            let mut it = line.split_whitespace();
            let kind = it.next().unwrap_or("");
            let fields: Vec<&str> = it.collect();
            match kind {
                "crash" => {
                    let [e, from, until] = fields[..] else {
                        return Err(err("expected `crash <executor> <from_s> <until_s>`"));
                    };
                    let w = CrashWindow {
                        executor: e.parse().map_err(|_| err("bad executor"))?,
                        from: parse_secs(from).map_err(&err)?,
                        until: parse_secs(until).map_err(&err)?,
                    };
                    if w.until <= w.from {
                        return Err(err("window must satisfy from < until"));
                    }
                    plan.crashes.push(w);
                }
                "straggle" => {
                    let [e, from, until, mult] = fields[..] else {
                        return Err(err(
                            "expected `straggle <executor> <from_s> <until_s> <multiplier>`",
                        ));
                    };
                    let ep = StragglerEpisode {
                        executor: e.parse().map_err(|_| err("bad executor"))?,
                        from: parse_secs(from).map_err(&err)?,
                        until: parse_secs(until).map_err(&err)?,
                        multiplier: mult.parse().map_err(|_| err("bad multiplier"))?,
                    };
                    if ep.until <= ep.from {
                        return Err(err("episode must satisfy from < until"));
                    }
                    if !(1.0..=MAX_MULTIPLIER).contains(&ep.multiplier) {
                        return Err(err("multiplier must be in [1, 1e6]"));
                    }
                    plan.stragglers.push(ep);
                }
                "transient" => {
                    let [p] = fields[..] else {
                        return Err(err("expected `transient <probability>`"));
                    };
                    let p: f64 = p.parse().map_err(|_| err("bad probability"))?;
                    if !(0.0..1.0).contains(&p) {
                        return Err(err("probability must be in [0, 1)"));
                    }
                    plan.transient_p = p;
                }
                "timeout-q" => {
                    let [q] = fields[..] else {
                        return Err(err("expected `timeout-q <quantile>`"));
                    };
                    let q: f64 = q.parse().map_err(|_| err("bad quantile"))?;
                    if !(0.0..=1.0).contains(&q) {
                        return Err(err("quantile must be in [0, 1]"));
                    }
                    plan.timeout_quantile = Some(q);
                }
                other => return Err(err(&format!("unknown directive `{other}`"))),
            }
        }
        Ok(plan)
    }

    /// Up/down transitions from the crash windows, with overlapping windows
    /// per executor merged, sorted by `(at, executor, up)`. Pushing these
    /// into an event queue before any arrival gives both backends the same
    /// total order of fault events.
    pub fn transitions(&self) -> Vec<FaultTransition> {
        let mut per_exec: std::collections::BTreeMap<usize, Vec<(SimTime, SimTime)>> =
            std::collections::BTreeMap::new();
        for w in &self.crashes {
            per_exec.entry(w.executor).or_default().push((w.from, w.until));
        }
        let mut out = Vec::new();
        for (executor, mut windows) in per_exec {
            windows.sort();
            let mut merged: Vec<(SimTime, SimTime)> = Vec::new();
            for (from, until) in windows {
                match merged.last_mut() {
                    Some((_, end)) if from <= *end => *end = (*end).max(until),
                    _ => merged.push((from, until)),
                }
            }
            for (from, until) in merged {
                out.push(FaultTransition { at: from, executor, up: false });
                out.push(FaultTransition { at: until, executor, up: true });
            }
        }
        out.sort_by_key(|t| (t.at, t.executor, t.up));
        out
    }

    /// Rejects a plan naming an executor outside `0..executors`: such a
    /// window or episode would never apply, so installing the plan would
    /// silently run something other than what was written.
    pub fn check_executors(&self, executors: usize) -> Result<(), String> {
        let crashes = self.crashes.iter().map(|w| ("crash", w.executor));
        let stragglers = self.stragglers.iter().map(|e| ("straggle", e.executor));
        match crashes.chain(stragglers).find(|&(_, executor)| executor >= executors) {
            Some((kind, executor)) => Err(format!(
                "fault plan: `{kind} {executor} ...` names executor {executor}, \
                 but the executors are 0..{executors}"
            )),
            None => Ok(()),
        }
    }
}

/// Latest instant a plan may name: far beyond any trace, and far from
/// overflowing `u64` microseconds once task durations are added to it.
const MAX_SECS: f64 = 1e9;

/// Largest straggler multiplier: stretches even a minutes-long task to a
/// span a [`SimTime`] holds without saturating.
const MAX_MULTIPLIER: f64 = 1e6;

fn parse_secs(s: &str) -> Result<SimTime, &'static str> {
    let v: f64 = s.parse().map_err(|_| "bad time")?;
    if !(0.0..=MAX_SECS).contains(&v) {
        return Err("time must be in [0, 1e9] seconds");
    }
    Ok(SimTime::from_secs_f64(v))
}

/// The fate of one submitted task under the fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskFate {
    /// Time the executor is occupied by the task (truncated at the failure
    /// point or timeout when `failed`).
    pub duration: SimDuration,
    /// Whether the task ends in failure instead of a completion.
    pub failed: bool,
}

/// Live interpreter of a [`FaultPlan`]: owns the dedicated `"faults"` RNG
/// stream, so fault draws never perturb workload or latency streams.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    rng: StdRng,
}

impl FaultState {
    /// Builds the interpreter for `plan` under the run's root `seed`.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        Self { plan, rng: stream_rng(seed, "faults") }
    }

    /// The plan being interpreted.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The straggler multiplier in force on `executor` at `t` (max over
    /// active episodes; `1.0` when none).
    pub fn straggler_multiplier(&self, executor: usize, t: SimTime) -> f64 {
        self.plan
            .stragglers
            .iter()
            .filter(|e| e.executor == executor && e.from <= t && t < e.until)
            .map(|e| e.multiplier)
            .fold(1.0, f64::max)
    }

    /// Per-task timeout for an executor with latency model `model`, if the
    /// plan configures one.
    pub fn timeout_for(&self, model: &LatencyModel) -> Option<SimDuration> {
        self.plan.timeout_quantile.map(|q| model.quantile(q))
    }

    /// Decides the fate of a task submitted to `executor` at `now` whose
    /// fault-free sampled duration is `sampled`, under timeout `timeout`.
    ///
    /// Draw discipline (critical for cross-backend determinism): when
    /// `transient_p > 0`, exactly one roll is drawn per submission, plus one
    /// failure-fraction draw *only* when the roll fails. Both backends submit
    /// in the same order, so the `"faults"` stream stays aligned. When the
    /// plan is a no-op the stream is never touched.
    pub fn task_fate(
        &mut self,
        executor: usize,
        now: SimTime,
        sampled: SimDuration,
        timeout: Option<SimDuration>,
    ) -> TaskFate {
        let mult = self.straggler_multiplier(executor, now);
        let effective = if mult > 1.0 {
            SimDuration::from_micros((sampled.as_micros() as f64 * mult).round() as u64)
        } else {
            sampled
        };
        if self.plan.transient_p > 0.0 {
            let roll: f64 = self.rng.random_range(0.0..1.0);
            if roll < self.plan.transient_p {
                // Fails part-way through: the executor is still occupied for
                // a fraction of the work before the failure surfaces.
                let frac: f64 = self.rng.random_range(0.05..0.95);
                let spent =
                    SimDuration::from_micros((effective.as_micros() as f64 * frac).round() as u64);
                let spent = match timeout {
                    Some(cap) if cap < spent => cap,
                    _ => spent,
                };
                return TaskFate { duration: spent, failed: true };
            }
        }
        match timeout {
            Some(cap) if effective > cap => TaskFate { duration: cap, failed: true },
            _ => TaskFate { duration: effective, failed: false },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn parses_all_directives_and_comments() {
        let plan = FaultPlan::parse(
            "# gauntlet\ncrash 1 0.5 2.0\nstraggle 0 1.0 3.0 4.0  # slow\ntransient 0.05\ntimeout-q 0.99\n\n",
        )
        .expect("plan must parse");
        assert_eq!(plan.crashes.len(), 1);
        assert_eq!(plan.crashes[0].executor, 1);
        assert_eq!(plan.stragglers[0].multiplier, 4.0);
        assert_eq!(plan.transient_p, 0.05);
        assert_eq!(plan.timeout_quantile, Some(0.99));
        assert!(!plan.is_noop());
        assert!(FaultPlan::default().is_noop());
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "crash 0 2.0 1.0",
            "crash x 0 1",
            "straggle 0 0 1 0.5",
            "straggle 0 0 5 1e30",
            "straggle 0 0 5 nan",
            "crash 0 0 1e30",
            "crash 0 nan 1",
            "crash 0 0 inf",
            "transient 1.5",
            "timeout-q 2",
            "flarp 1 2 3",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn transitions_merge_overlaps_and_sort() {
        let plan = FaultPlan::parse("crash 0 1 3\ncrash 0 2 4\ncrash 1 0.5 1").unwrap();
        let ts = plan.transitions();
        assert_eq!(
            ts,
            vec![
                FaultTransition { at: at(0.5), executor: 1, up: false },
                FaultTransition { at: at(1.0), executor: 0, up: false },
                FaultTransition { at: at(1.0), executor: 1, up: true },
                FaultTransition { at: at(4.0), executor: 0, up: true },
            ]
        );
    }

    #[test]
    fn straggler_multiplier_takes_max_of_active_episodes() {
        let plan = FaultPlan::parse("straggle 0 1 5 2.0\nstraggle 0 2 3 6.0").unwrap();
        let st = FaultState::new(plan, 1);
        assert_eq!(st.straggler_multiplier(0, at(0.5)), 1.0);
        assert_eq!(st.straggler_multiplier(0, at(1.5)), 2.0);
        assert_eq!(st.straggler_multiplier(0, at(2.5)), 6.0);
        assert_eq!(st.straggler_multiplier(1, at(2.5)), 1.0);
    }

    #[test]
    fn task_fate_is_deterministic_per_seed() {
        let plan = FaultPlan::parse("transient 0.3\nstraggle 0 0 10 3.0").unwrap();
        let run = |seed| {
            let mut st = FaultState::new(plan.clone(), seed);
            (0..50)
                .map(|i| st.task_fate(0, at(i as f64 * 0.1), SimDuration::from_millis(20), None))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same fates");
        assert_ne!(run(7), run(8), "different seed, different fates");
        let fates = run(7);
        assert!(fates.iter().any(|f| f.failed), "p=0.3 over 50 draws must fail sometimes");
        assert!(fates.iter().any(|f| !f.failed));
        // Straggled successes are 3x the 20ms nominal.
        assert!(fates
            .iter()
            .filter(|f| !f.failed)
            .all(|f| f.duration == SimDuration::from_millis(60)));
    }

    #[test]
    fn timeout_truncates_and_fails_long_tasks() {
        let plan = FaultPlan::parse("straggle 0 0 10 5.0").unwrap();
        let mut st = FaultState::new(plan, 1);
        let cap = SimDuration::from_millis(30);
        let fate = st.task_fate(0, at(1.0), SimDuration::from_millis(20), Some(cap));
        assert_eq!(fate, TaskFate { duration: cap, failed: true });
        let ok = st.task_fate(1, at(1.0), SimDuration::from_millis(20), Some(cap));
        assert_eq!(ok, TaskFate { duration: SimDuration::from_millis(20), failed: false });
    }
}
