//! Alg. 1: quantized dynamic-programming scheduling with Pareto pruning.
//!
//! Queries are processed in EDF order (Theorems 1–2). The DP walks the
//! queries, maintaining a frontier of partial solutions; each solution
//! carries its quantized cumulative reward `u` (in units of `δ`) and the
//! vector of per-model finish times its choices imply. Extending a solution
//! with subset `s` for query `i` is feasible iff the query's completion
//! (max over chosen models of `finish_k + T_k`) meets its deadline.
//!
//! The paper's `Comb/Time` table indexed by `(i, u)` with per-cell pruning is
//! realised sparsely: the frontier *is* the set of non-empty cells, and the
//! pruning rule is strengthened to full Pareto dominance across cells —
//! solution A dominates B when `A.u ≥ B.u` and `A.times ≤ B.times`
//! element-wise (any completion achievable from B is achievable from A at no
//! less reward, so dropping B is exact). Each layer keeps at most
//! `max_frontier` nodes, the first that many survivors in (reward descending,
//! finish-time total ascending, generation order) — a beam. At `m = 3` the
//! exact frontier rarely reaches the default cap; at `m = 8` it does in most
//! layers (58 % of them on the benchmark's `c8_poisson_dark`), so there the
//! cap decides both the plan and how much of a layer is ever looked at.
//!
//! The returned [`SchedulePlan::work`] charges the *dense* table cost of
//! Alg. 1 as written — `Σ_i (i/δ) · 2^m` cell updates — which the serving
//! pipeline converts into scheduling latency. The sparse frontier here is a
//! wall-clock optimisation that produces the same plan; the simulated system
//! still pays the algorithm's nominal cost, which is what makes `δ = 0.001`
//! *lose* end-to-end in Fig. 12/21 despite its better plans.
//!
//! # Hot path
//!
//! A layer is defined as: generate a skip-copy and every feasible extension
//! of every frontier node, sort by (`u` desc, total asc, generation index
//! asc), keep the non-dominated ones in that order, stop at the cap. The
//! retained `reference` implementation under `#[cfg(test)]` does literally
//! that. [`DpScheduler::plan_into`] produces the same layers — bit-for-bit,
//! pinned by the differential tests — while touching only the candidates
//! that can survive:
//!
//! * **Subset prefilter** (`subset_list`). Subset `s` is dropped from a
//!   query's list when a proper non-empty `s' ⊂ s` has `⌊U(s')/δ⌋ ≥
//!   ⌊U(s)/δ⌋`. From any parent, `s'` is feasible whenever `s` is, yields
//!   reward ≥ and finish times ≤ element-wise, and sorts strictly earlier
//!   (on a full tie `s'` has the smaller mask, hence the smaller generation
//!   index). So when the sorted scan reaches `s`, either `s'` or whatever
//!   dominated `s'` has been kept and dominates `s`, or the cap already
//!   ended the layer: `s` is never kept and never the final best, and
//!   removing it changes nothing.
//! * **Lists shared per run.** A list depends only on the utility row, `δ`
//!   and the latencies. Queries of one difficulty bin share the profile's
//!   row `Arc`, so the scratch keeps each row's list across plans, found by
//!   pointer: a run sorts one list per bin, not one per bin per plan
//!   ([`SchedScratch`] says what bounds and clears the cache).
//! * **Ordered merge** (`Merge`). Sorting a list once by (`⌊U/δ⌋` desc,
//!   Σ latency asc, mask asc) fixes the order of every parent's extensions,
//!   with the skip-copy last (extensions add reward ≥ 1). A k-way merge
//!   over the parents through a heap keyed (`u` desc, total asc, parent
//!   asc) therefore pops candidates in exactly the sorted order — lazily,
//!   so the ones behind the cap are never generated. Feasibility is one
//!   subset test against the parent's "models that finish by the deadline"
//!   mask.
//! * **Dominance on use counts** (`UseLanes`). A popped candidate is
//!   dominated when some kept node's finish times are all ≤ its own, which
//!   is when that node's per-model use counts are: one subtract-and-mask
//!   per kept node on packed counts. Only a kept candidate gets a
//!   finish-time row.
//! * **Final layer.** Its only consumer is the best-node pick, and the best
//!   node is the first one in sorted order: the maximum over each parent's
//!   first feasible candidate. No layer is materialised.
//!
//! All working memory lives in the caller's [`SchedScratch`] and the result
//! is written into a reusable [`SchedulePlan`], so a steady-state call
//! allocates nothing.

use super::input::{ScheduleInput, SchedulePlan};
use super::scratch::{MergeEntry, NodeMeta, SchedScratch, SubsetCand};
use super::Scheduler;
use schemble_models::ModelSet;
use schemble_sim::{SimDuration, SimTime};
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Alg. 1 with quantization step `delta`.
///
/// # Examples
///
/// The §I example: three 20 ms models, two queries due at 25 ms — the DP
/// splits the models so both queries are served.
///
/// ```
/// use schemble_core::scheduler::{BufferedQuery, DpScheduler, ScheduleInput, Scheduler};
/// use schemble_sim::{SimDuration, SimTime};
///
/// let query = |id| BufferedQuery {
///     id,
///     arrival: SimTime::ZERO,
///     deadline: SimTime::from_millis(25),
///     utilities: vec![0.0, 0.9, 0.9, 0.95, 0.9, 0.95, 0.95, 1.0].into(),
///     score: 0.2,
/// };
/// let input = ScheduleInput {
///     now: SimTime::ZERO,
///     availability: vec![SimTime::ZERO; 3],
///     latencies: vec![SimDuration::from_millis(20); 3],
///     queries: vec![query(0), query(1)],
/// };
/// let plan = DpScheduler::default().plan(&input);
/// assert_eq!(plan.scheduled_count(), 2);
/// assert!(input.plan_is_feasible(&plan));
/// ```
#[derive(Debug, Clone)]
pub struct DpScheduler {
    /// Reward quantization step δ (paper default 0.01).
    pub delta: f64,
    /// Pareto-frontier cap (beam width). Small ensembles seldom reach the
    /// default, so for them it only bounds adversarial cases; at `m = 8` it
    /// binds in most layers and is part of the algorithm.
    pub max_frontier: usize,
    /// At most this many EDF-first queries are planned per round; the rest
    /// stay buffered for the next invocation.
    pub max_queries: usize,
}

impl Default for DpScheduler {
    fn default() -> Self {
        Self { delta: 0.01, max_frontier: 64, max_queries: 24 }
    }
}

impl DpScheduler {
    /// A DP scheduler with the given δ and default caps.
    pub fn with_delta(delta: f64) -> Self {
        assert!(delta > 0.0, "delta must be positive");
        Self { delta, ..Self::default() }
    }

    /// The quantization step `plan` actually uses. Struct-literal
    /// construction bypasses [`DpScheduler::with_delta`]'s assertion, so a
    /// zero, negative, NaN or infinite δ could otherwise divide rewards to
    /// infinity and overflow the `work` accounting; such values fall back to
    /// the default (debug builds assert instead).
    fn effective_delta(&self) -> f64 {
        if self.delta.is_finite() && self.delta > 0.0 {
            self.delta
        } else {
            Self::default().delta
        }
    }
}

impl Scheduler for DpScheduler {
    fn plan_into(&self, input: &ScheduleInput, scratch: &mut SchedScratch, out: &mut SchedulePlan) {
        debug_assert!(
            self.delta.is_finite() && self.delta > 0.0,
            "DpScheduler.delta must be positive and finite, got {}",
            self.delta
        );
        let delta = self.effective_delta();
        let n = input.queries.len();
        let m = input.m();
        out.work = 0;
        out.frontier = 0;
        out.order.clear();
        out.assignments.clear();
        out.assignments.resize(n, ModelSet::EMPTY);
        if n == 0 {
            return;
        }
        input.edf_order_into(&mut out.order);
        let planned_len = out.order.len().min(self.max_queries);
        let planned = &out.order[..planned_len];
        if planned.is_empty() {
            return;
        }
        let cap = self.max_frontier.max(1);
        // Layers 0..planned_len hold the pruned frontiers (root at 0); the
        // final layer is never materialised.
        scratch.begin_plan(planned_len);

        // Root: one node at the models' start times, having used no model.
        let mut root_total = 0u128;
        for &a in &input.availability {
            let t = a.max(input.now);
            root_total += t.as_micros() as u128;
            scratch.prev_times.push(t);
        }
        let lanes = UseLanes::new(&input.latencies, planned_len);
        scratch.prev_uses.resize(lanes.words, 0);
        scratch.layers[0].push(NodeMeta {
            u: 0,
            total: root_total,
            parent: u32::MAX,
            choice: ModelSet::EMPTY,
        });

        // One sorted subset list per distinct utility row, kept across plans.
        // The engine hands every query of a difficulty bin the profile's own
        // `Arc`, so pointer identity finds the sharing without comparing
        // `2^m` floats.
        scratch.key_lists(&input.latencies, delta, planned_len);
        for &qi in planned {
            let utilities = &input.queries[qi].utilities;
            let list = scratch.cached_list(utilities).unwrap_or_else(|| {
                let list = subset_list(scratch, utilities, &input.latencies, delta);
                scratch.cache_list(utilities, list.clone());
                list
            });
            scratch.lists.push(list);
        }

        let mut best: Option<MergeEntry> = None;
        for (step, &qi) in planned.iter().enumerate() {
            // `work` models the cost of Alg. 1 as written: a dense table over
            // (queries × quantized reward levels × subsets). The Pareto-
            // sparse frontier computes the same plan much faster in
            // wall-clock, but the *simulated* scheduler is charged the dense
            // cost — that is what the paper's implementation pays and what
            // makes δ = 0.001 lose end-to-end (Fig. 12/21).
            let dense_levels = (((step + 1) as f64) / delta).ceil() as u64;
            out.work += dense_levels * (1u64 << m);

            let SchedScratch {
                prev_times,
                next_times,
                prev_uses,
                next_uses,
                layers,
                subsets,
                lists,
                ok_masks,
                heap,
                stats,
                ..
            } = scratch;
            let list = &subsets[lists[step].clone()];
            let (done, rest) = layers.split_at_mut(step + 1);
            let parents = &done[step][..];
            out.frontier = out.frontier.max(parents.len() as u32);
            ok_masks.clear();
            ok_masks.extend((0..parents.len()).map(|p| {
                let row = &prev_times[p * m..(p + 1) * m];
                finishing_by(input.queries[qi].deadline, row, &input.latencies)
            }));

            if step + 1 == planned_len {
                // The best terminal node is the first candidate in merge
                // order; each parent's first is its first feasible one.
                stats.nodes_expanded += parents.len() as u64;
                best = first_candidates(parents, ok_masks, list).max();
                break;
            }

            let kept = &mut rest[0];
            debug_assert!(kept.is_empty(), "begin_plan must have cleared the layer");
            next_times.clear();
            next_uses.clear();
            let w = lanes.words;
            for cand in Merge::new(heap, parents, ok_masks, list) {
                stats.nodes_expanded += 1;
                let choice = choice_at(list, cand.rank);
                let parent = cand.parent as usize;
                let base = next_uses.len();
                next_uses.extend_from_slice(&prev_uses[parent * w..(parent + 1) * w]);
                lanes.add(&mut next_uses[base..], choice);
                // Kept nodes were visited earlier, so their reward is
                // already ≥ the candidate's; dominance is down to the time
                // rows, which is down to the use counts (`UseLanes`).
                let (kept_uses, uses) = next_uses.split_at(base);
                if lanes.any_le(kept_uses, uses) {
                    next_uses.truncate(base);
                    continue;
                }
                let row = next_times.len();
                next_times.extend_from_slice(&prev_times[parent * m..(parent + 1) * m]);
                for k in choice.iter() {
                    next_times[row + k] += input.latencies[k];
                }
                kept.push(NodeMeta { u: cand.u, total: cand.total, parent: cand.parent, choice });
                if kept.len() >= cap {
                    break;
                }
            }
            stats.nodes_kept += kept.len() as u64;
            std::mem::swap(prev_times, next_times);
            std::mem::swap(prev_uses, next_uses);
        }

        // Backtrack choices through the layers.
        let best = best.expect("the final layer holds at least the root's skip-copy");
        let last_list = &scratch.subsets[scratch.lists[planned_len - 1].clone()];
        out.assignments[planned[planned_len - 1]] = choice_at(last_list, best.rank);
        let mut idx = best.parent as usize;
        for layer in (1..planned_len).rev() {
            let node = scratch.layers[layer][idx];
            out.assignments[planned[layer - 1]] = node.choice;
            idx = node.parent as usize;
        }
    }

    fn name(&self) -> String {
        format!("DP(δ={})", self.delta)
    }
}

/// Appends the sorted extension list of one utility table to
/// `scratch.subsets` and returns its range: every subset with a non-zero
/// quantized reward that strictly beats all of its proper non-empty subsets
/// (the module docs argue why the rest can never be kept), ordered by
/// (`quantized` desc, `add_micros` asc, mask asc) — the order in which any
/// one parent's extensions appear in the sorted candidate layer.
fn subset_list(
    scratch: &mut SchedScratch,
    utilities: &[f64],
    latencies: &[SimDuration],
    delta: f64,
) -> Range<usize> {
    let SchedScratch { quant, best_sub, subsets, .. } = scratch;
    let m = latencies.len();
    quant.clear();
    quant.push(0); // ∅ is the skip-copy, not a subset to beat.
    quant.extend(
        ModelSet::all_nonempty(m).map(|s| (utilities[s.0 as usize] / delta).floor() as u64),
    );
    proper_subset_max(quant, best_sub);
    let start = subsets.len();
    for set in ModelSet::all_nonempty(m) {
        let quantized = quant[set.0 as usize];
        if quantized > best_sub[set.0 as usize] {
            let add_micros = set.iter().map(|k| latencies[k].as_micros()).sum();
            subsets.push(SubsetCand { set, quantized, add_micros });
        }
    }
    subsets[start..].sort_unstable_by(|a, b| {
        (b.quantized.cmp(&a.quantized))
            .then(a.add_micros.cmp(&b.add_micros))
            .then(a.set.0.cmp(&b.set.0))
    });
    start..subsets.len()
}

/// `best_sub[s]` = the highest `quant` over the proper subsets of mask `s`.
/// One sweep in mask order: dropping one element from `s` gives a smaller
/// mask, whose own entry already covers everything below it.
fn proper_subset_max(quant: &[u64], best_sub: &mut Vec<u64>) {
    best_sub.clear();
    best_sub.resize(quant.len(), 0);
    for s in 1..quant.len() {
        let set = ModelSet(s as u32);
        best_sub[s] = set
            .iter()
            .map(|k| set.without(k).0 as usize)
            .map(|sub| quant[sub].max(best_sub[sub]))
            .max()
            .unwrap_or(0);
    }
}

/// How often each model has been chosen along a node's path, packed one
/// count per lane of `u64` words: the node's dominance key.
///
/// Every node of a plan descends from the one root, and choosing model `k`
/// adds exactly `latencies[k]` to its finish time, so a node's time for `k`
/// is `root_k + count_k · latencies[k]`. One node's times are then all ≤
/// another's exactly when its counts are, over the models with a non-zero
/// latency (a zero-latency model's time never moves; its count is not
/// kept). That holds as long as the time arithmetic does not overflow,
/// which debug builds assert. Comparing counts lane-parallel replaces a walk
/// over `m` times per kept node with one subtraction per word.
#[derive(Debug, Clone, Copy)]
struct UseLanes {
    /// Lanes per word and bits per lane.
    per_word: usize,
    bits: usize,
    /// Words per node.
    words: usize,
    /// Each lane's top bit, which a count never reaches.
    high: u64,
    /// The models with a non-zero latency.
    counted: ModelSet,
}

impl UseLanes {
    /// Lanes for a plan of `layers` layers: a count is at most the number
    /// of layers, so byte lanes while that stays below 128, else a word per
    /// model.
    fn new(latencies: &[SimDuration], layers: usize) -> Self {
        let per_word = if layers < 128 { 8 } else { 1 };
        let bits = 64 / per_word;
        let high = (0..per_word).fold(0, |high, lane| high | 1 << (lane * bits + bits - 1));
        let counted = (0..latencies.len())
            .filter(|&k| latencies[k] > SimDuration::ZERO)
            .fold(ModelSet::EMPTY, ModelSet::with);
        // One word even at m = 0, so rows stay countable.
        let words = latencies.len().div_ceil(per_word).max(1);
        Self { per_word, bits, words, high, counted }
    }

    /// Counts one more use of every counted model in `choice`.
    fn add(&self, uses: &mut [u64], choice: ModelSet) {
        for k in ModelSet(choice.0 & self.counted.0).iter() {
            uses[k / self.per_word] += 1 << (k % self.per_word * self.bits);
        }
    }

    /// Whether some row of `rows` has every count ≤ the same count in
    /// `uses`: per lane, `b + 2^(bits-1) - a` keeps the lane's top bit
    /// exactly when `b ≥ a`, and never borrows from the next lane.
    fn any_le(&self, rows: &[u64], uses: &[u64]) -> bool {
        let le = |a: u64, b: u64| ((b | self.high) - a) & self.high == self.high;
        match uses {
            &[b] => rows.iter().any(|&a| le(a, b)),
            _ => rows.chunks_exact(self.words).any(|a| a.iter().zip(uses).all(|(&a, &b)| le(a, b))),
        }
    }
}

/// The models that finish by `deadline` when started after `times`.
fn finishing_by(deadline: SimTime, times: &[SimTime], latencies: &[SimDuration]) -> ModelSet {
    let mut ok = ModelSet::EMPTY;
    for (k, (&t, &latency)) in times.iter().zip(latencies).enumerate() {
        if t + latency <= deadline {
            ok = ok.with(k);
        }
    }
    ok
}

/// Rank of the first subset at or after `from` that fits inside `ok`;
/// `list.len()` — the skip-copy's rank — when none does.
fn first_fitting(list: &[SubsetCand], ok: ModelSet, from: usize) -> usize {
    list[from..].iter().position(|c| c.set.is_subset_of(ok)).map_or(list.len(), |i| from + i)
}

/// Candidate `rank` of frontier node `parent`: the extension by
/// `list[rank]`, or the skip-copy at `rank == list.len()`.
fn candidate(parents: &[NodeMeta], parent: usize, list: &[SubsetCand], rank: usize) -> MergeEntry {
    let node = parents[parent];
    let (gain, add_micros) = list.get(rank).map_or((0, 0), |c| (c.quantized, c.add_micros));
    MergeEntry {
        u: node.u + gain,
        total: node.total + add_micros as u128,
        parent: parent as u32,
        rank: rank as u32,
    }
}

/// Every frontier node's first candidate in merge order: its first feasible
/// extension, or its skip-copy when nothing fits.
fn first_candidates<'a>(
    parents: &'a [NodeMeta],
    ok_masks: &'a [ModelSet],
    list: &'a [SubsetCand],
) -> impl Iterator<Item = MergeEntry> + 'a {
    (0..parents.len())
        .map(move |p| candidate(parents, p, list, first_fitting(list, ok_masks[p], 0)))
}

/// The subset a candidate of rank `rank` assigns (∅ for the skip-copy).
fn choice_at(list: &[SubsetCand], rank: u32) -> ModelSet {
    list.get(rank as usize).map_or(ModelSet::EMPTY, |c| c.set)
}

/// One layer's candidates in sorted order, produced lazily: a k-way merge
/// over the frontier nodes, each contributing its feasible extensions in
/// list order and then its skip-copy. Infeasible extensions are skipped
/// without entering the heap; nothing past the last `next()` is generated.
struct Merge<'a> {
    heap: &'a mut BinaryHeap<MergeEntry>,
    parents: &'a [NodeMeta],
    ok_masks: &'a [ModelSet],
    list: &'a [SubsetCand],
}

impl<'a> Merge<'a> {
    fn new(
        heap: &'a mut BinaryHeap<MergeEntry>,
        parents: &'a [NodeMeta],
        ok_masks: &'a [ModelSet],
        list: &'a [SubsetCand],
    ) -> Self {
        heap.clear();
        heap.extend(first_candidates(parents, ok_masks, list));
        Self { heap, parents, ok_masks, list }
    }
}

impl Iterator for Merge<'_> {
    type Item = MergeEntry;

    fn next(&mut self) -> Option<MergeEntry> {
        let mut top = self.heap.peek_mut()?;
        let cand = *top;
        if (cand.rank as usize) < self.list.len() {
            let parent = cand.parent as usize;
            let next = first_fitting(self.list, self.ok_masks[parent], cand.rank as usize + 1);
            *top = candidate(self.parents, parent, self.list, next);
        } else {
            PeekMut::pop(top);
        }
        Some(cand)
    }
}

/// The pre-refactor implementation, retained verbatim as the differential
/// oracle: `plan_into` must produce byte-identical plans.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    #[derive(Debug, Clone)]
    struct Node {
        u: u64,
        times: Vec<SimTime>,
        parent: usize,
        choice: ModelSet,
    }

    fn total_micros(times: &[SimTime]) -> u128 {
        times.iter().map(|t| t.as_micros() as u128).sum()
    }

    fn prune(nodes: &mut Vec<Node>, cap: usize) {
        nodes.sort_by(|a, b| {
            b.u.cmp(&a.u).then_with(|| total_micros(&a.times).cmp(&total_micros(&b.times)))
        });
        let mut kept: Vec<Node> = Vec::with_capacity(nodes.len().min(cap));
        'candidates: for node in nodes.drain(..) {
            for k in &kept {
                if k.u >= node.u && k.times.iter().zip(&node.times).all(|(a, b)| a <= b) {
                    continue 'candidates;
                }
            }
            kept.push(node);
            if kept.len() >= cap {
                break;
            }
        }
        *nodes = kept;
    }

    pub(crate) fn plan(sched: &DpScheduler, input: &ScheduleInput) -> SchedulePlan {
        let n = input.queries.len();
        if n == 0 {
            return SchedulePlan::empty(0);
        }
        let m = input.m();
        let order = input.edf_order();
        let planned: Vec<usize> = order.iter().copied().take(sched.max_queries).collect();

        let start_times: Vec<SimTime> =
            input.availability.iter().map(|&a| a.max(input.now)).collect();
        let root = Node { u: 0, times: start_times, parent: usize::MAX, choice: ModelSet::EMPTY };

        let mut layers: Vec<Vec<Node>> = Vec::with_capacity(planned.len() + 1);
        layers.push(vec![root]);
        let mut work = 0u64;

        for (step, &qi) in planned.iter().enumerate() {
            let dense_levels = (((step + 1) as f64) / sched.delta).ceil() as u64;
            work += dense_levels * (1u64 << m);
            let q = &input.queries[qi];
            let prev = layers.last().expect("non-empty layers");
            let mut next: Vec<Node> = Vec::with_capacity(prev.len() * 2);
            for (pi, node) in prev.iter().enumerate() {
                next.push(Node {
                    u: node.u,
                    times: node.times.clone(),
                    parent: pi,
                    choice: ModelSet::EMPTY,
                });
                for set in ModelSet::all_nonempty(m) {
                    let reward = q.utilities[set.0 as usize];
                    let quantized = (reward / sched.delta).floor() as u64;
                    if quantized == 0 {
                        continue;
                    }
                    let mut times = node.times.clone();
                    let mut completion = SimTime::ZERO;
                    for k in set.iter() {
                        let finish = times[k] + input.latencies[k];
                        times[k] = finish;
                        completion = completion.max(finish);
                    }
                    if completion > q.deadline {
                        continue;
                    }
                    next.push(Node { u: node.u + quantized, times, parent: pi, choice: set });
                }
            }
            prune(&mut next, sched.max_frontier);
            layers.push(next);
        }

        let last = layers.last().expect("non-empty layers");
        let mut best = 0usize;
        for (i, node) in last.iter().enumerate() {
            let better = node.u > last[best].u
                || (node.u == last[best].u
                    && total_micros(&node.times) < total_micros(&last[best].times));
            if better {
                best = i;
            }
        }

        let mut assignments = vec![ModelSet::EMPTY; n];
        let mut idx = best;
        for layer in (1..layers.len()).rev() {
            let node = &layers[layer][idx];
            assignments[planned[layer - 1]] = node.choice;
            idx = node.parent;
        }

        SchedulePlan { assignments, order, work, frontier: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::brute::optimal_plan;
    use crate::scheduler::input::BufferedQuery;
    use proptest::prelude::*;
    use schemble_sim::SimDuration;
    use std::sync::Arc;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }
    fn at(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    fn query(id: u64, deadline_ms: u64, utilities: impl Into<Arc<[f64]>>) -> BufferedQuery {
        let utilities = utilities.into();
        BufferedQuery { id, arrival: at(0), deadline: at(deadline_ms), utilities, score: 0.5 }
    }

    #[test]
    fn splits_models_across_two_easy_queries() {
        // The paper's §I example: two easy queries, three models. Running the
        // full set on query 1 would block query 2; splitting processes both.
        let utilities = vec![0.0, 0.9, 0.9, 0.92, 0.9, 0.92, 0.92, 1.0];
        let input = ScheduleInput {
            now: at(0),
            availability: vec![at(0); 3],
            latencies: vec![ms(20), ms(20), ms(20)],
            queries: vec![query(0, 25, utilities.clone()), query(1, 25, utilities)],
        };
        let plan = DpScheduler::default().plan(&input);
        assert_eq!(plan.scheduled_count(), 2, "both queries must be served");
        assert!(input.plan_is_feasible(&plan));
        // Neither query can take more than the deadline allows (one round).
        let total_models: usize = plan.assignments.iter().map(|s| s.len()).sum();
        assert_eq!(total_models, 3, "all three models should be used exactly once");
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        // Deterministic sweep of small instances; DP with tiny δ must equal
        // the exact optimum.
        let mut mismatches = 0;
        for seed in 0..20u64 {
            let input = random_instance(seed, 4, 2);
            let dp = DpScheduler { delta: 1e-4, max_frontier: 4096, max_queries: 24 }.plan(&input);
            let best = optimal_plan(&input);
            let dp_u = input.plan_utility(&dp);
            let opt_u = input.plan_utility(&best);
            assert!(input.plan_is_feasible(&dp));
            if (dp_u - opt_u).abs() > 1e-6 {
                mismatches += 1;
                eprintln!("seed {seed}: dp {dp_u} vs opt {opt_u}");
            }
        }
        assert_eq!(mismatches, 0, "DP fell short of the optimum");
    }

    #[test]
    fn coarser_delta_never_beats_finer() {
        for seed in 0..10u64 {
            let input = random_instance(seed, 5, 3);
            let fine = DpScheduler::with_delta(0.001).plan(&input);
            let coarse = DpScheduler::with_delta(0.1).plan(&input);
            assert!(
                input.plan_utility(&fine) + 1e-9 >= input.plan_utility(&coarse),
                "seed {seed}: finer δ lost"
            );
            // …but the coarse plan must be much cheaper to compute on
            // frontier-heavy instances (work is monotone in frontier size).
            assert!(coarse.work <= fine.work);
        }
    }

    #[test]
    fn respects_model_availability() {
        let input = ScheduleInput {
            now: at(0),
            availability: vec![at(90), at(0)],
            latencies: vec![ms(10), ms(10)],
            queries: vec![query(0, 50, vec![0.0, 0.8, 0.8, 1.0])],
        };
        let plan = DpScheduler::default().plan(&input);
        // Model 0 is busy until 90 > deadline 50; only model 1 is usable.
        assert_eq!(plan.assignments[0], ModelSet::singleton(1));
    }

    #[test]
    fn empty_buffer_is_fine() {
        let input =
            ScheduleInput { now: at(0), availability: vec![], latencies: vec![], queries: vec![] };
        let plan = DpScheduler::default().plan(&input);
        assert_eq!(plan.assignments.len(), 0);
    }

    #[test]
    fn impossible_deadlines_schedule_nothing() {
        let input = ScheduleInput {
            now: at(100),
            availability: vec![at(100)],
            latencies: vec![ms(50)],
            queries: vec![query(0, 120, vec![0.0, 1.0])],
        };
        let plan = DpScheduler::default().plan(&input);
        assert!(plan.assignments[0].is_empty());
    }

    #[test]
    fn matches_reference_on_deterministic_sweep() {
        // Differential check over a seed sweep covering several shapes and
        // both paper-range and extreme δ values.
        for seed in 0..40u64 {
            for &(n, m) in &[(1usize, 1usize), (3, 2), (5, 3), (8, 4), (6, 5)] {
                let input = random_instance(seed, n, m);
                for delta in [0.01, 0.1, 0.001] {
                    let sched = DpScheduler { delta, ..DpScheduler::default() };
                    assert_eq!(
                        sched.plan(&input),
                        reference::plan(&sched, &input),
                        "seed {seed} n {n} m {m} δ {delta}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_reference_under_tight_frontier_and_query_caps() {
        // Caps change which nodes survive; the tie-breaking rules must still
        // agree exactly.
        for seed in 0..25u64 {
            let input = random_instance(seed, 7, 3);
            for (max_frontier, max_queries) in [(1, 24), (2, 24), (5, 4), (64, 2), (3, 1)] {
                let sched = DpScheduler { delta: 0.05, max_frontier, max_queries };
                assert_eq!(
                    sched.plan(&input),
                    reference::plan(&sched, &input),
                    "seed {seed} cap {max_frontier} max_q {max_queries}"
                );
            }
        }
    }

    proptest! {
        /// The scratch-based DP is byte-identical to the reference on random
        /// instances: assignments, order and `work` all match.
        #[test]
        fn differential_plan_equality(
            seed in 0u64..10_000,
            n in 1usize..=8,
            m in 1usize..=6,
            delta_idx in 0usize..4,
            max_frontier in 1usize..=64,
        ) {
            let delta = [0.01, 0.05, 0.001, 0.2][delta_idx];
            let input = random_instance(seed, n, m);
            let sched = DpScheduler { delta, max_frontier, max_queries: 24 };
            let fast = sched.plan(&input);
            let slow = reference::plan(&sched, &input);
            prop_assert_eq!(fast, slow);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The regime the ordered merge and the subset prefilter change:
        /// ensembles up to m = 8 (the cap binds), utilities on a 0.05 grid
        /// so subsets and supersets tie after quantization, a zero-latency
        /// model (full ties that fall through to mask order), queries
        /// sharing one table, and a query cap below the buffer size.
        #[test]
        fn differential_plan_equality_with_ties_and_binding_caps(
            seed in 0u64..10_000,
            n in 1usize..=16,
            m in 1usize..=8,
            delta_idx in 0usize..3,
            cap_idx in 0usize..4,
            max_queries in 1usize..=20,
        ) {
            let delta = [0.01, 0.05, 0.1][delta_idx];
            let max_frontier = [1, 2, 8, 64][cap_idx];
            let input = tied_instance(seed, n, m);
            let sched = DpScheduler { delta, max_frontier, max_queries };
            prop_assert_eq!(sched.plan(&input), reference::plan(&sched, &input));
        }
    }

    #[test]
    fn matches_brute_force_at_m8() {
        // Two queries over eight models: 2^16 joint choices for the brute
        // force, and a first layer wide enough that only an exact prefilter
        // and merge can still find the optimum.
        for seed in 0..6u64 {
            let input = random_instance(seed, 2, 8);
            let dp = DpScheduler { delta: 1e-4, max_frontier: 4096, max_queries: 24 }.plan(&input);
            let best = optimal_plan(&input);
            assert!(input.plan_is_feasible(&dp));
            let (dp_u, opt_u) = (input.plan_utility(&dp), input.plan_utility(&best));
            assert!((dp_u - opt_u).abs() < 1e-6, "seed {seed}: dp {dp_u} vs opt {opt_u}");
        }
    }

    #[test]
    fn subset_max_sweep_matches_naive_scan() {
        use rand::Rng;
        let mut rng = schemble_sim::rng::stream_rng(17, "subset-max");
        let mut best_sub = Vec::new();
        for m in 0..=6usize {
            for _ in 0..20 {
                let mut quant: Vec<u64> = (0..1u32 << m).map(|_| rng.random_range(0..6)).collect();
                quant[0] = 0;
                proper_subset_max(&quant, &mut best_sub);
                for (s, &best) in best_sub.iter().enumerate().take(quant.len()) {
                    let naive = (1..s).filter(|sub| sub & s == *sub).map(|sub| quant[sub]).max();
                    assert_eq!(best, naive.unwrap_or(0), "m {m} mask {s:#b}");
                }
            }
        }
    }

    #[test]
    fn merge_visits_candidates_in_generate_and_sort_order() {
        use rand::Rng;
        let mut rng = schemble_sim::rng::stream_rng(23, "merge-order");
        let mut scratch = SchedScratch::new();
        for round in 0..200 {
            let m = rng.random_range(1..=6usize);
            // Coarse rewards and latencies (one of them zero) force ties on
            // every key of the order.
            let utilities: Vec<f64> =
                (0..1u32 << m).map(|_| 0.05 * rng.random_range(0..8) as f64).collect();
            let mut latencies: Vec<SimDuration> =
                (0..m).map(|_| ms(5 * rng.random_range(1..4u64))).collect();
            latencies[rng.random_range(0..m)] = ms(0);
            scratch.begin_plan(1);
            let range = subset_list(&mut scratch, &utilities, &latencies, 0.05);
            let list = &scratch.subsets[range];
            let parents: Vec<NodeMeta> = (0..rng.random_range(1..12u32))
                .map(|_| NodeMeta {
                    u: rng.random_range(0..4),
                    total: 5000 * rng.random_range(0..4u32) as u128,
                    parent: 0,
                    choice: ModelSet::EMPTY,
                })
                .collect();
            let ok_masks: Vec<ModelSet> =
                parents.iter().map(|_| ModelSet(rng.random_range(0..1u32 << m))).collect();

            // The old formulation: per parent a skip-copy, then its feasible
            // extensions in mask order; sort by (u desc, total asc, index).
            let mut by_mask = list.to_vec();
            by_mask.sort_by_key(|c| c.set.0);
            let mut generated: Vec<(u64, u128, u32, ModelSet)> = Vec::new();
            for (p, node) in parents.iter().enumerate() {
                generated.push((node.u, node.total, p as u32, ModelSet::EMPTY));
                for c in by_mask.iter().filter(|c| c.set.is_subset_of(ok_masks[p])) {
                    let total = node.total + c.add_micros as u128;
                    generated.push((node.u + c.quantized, total, p as u32, c.set));
                }
            }
            let mut perm: Vec<usize> = (0..generated.len()).collect();
            perm.sort_by(|&a, &b| {
                let (ca, cb) = (&generated[a], &generated[b]);
                cb.0.cmp(&ca.0).then(ca.1.cmp(&cb.1)).then(a.cmp(&b))
            });
            let expected: Vec<_> = perm.into_iter().map(|i| generated[i]).collect();

            let mut heap = BinaryHeap::new();
            let merged: Vec<_> = Merge::new(&mut heap, &parents, &ok_masks, list)
                .map(|c| (c.u, c.total, c.parent, choice_at(list, c.rank)))
                .collect();
            assert_eq!(merged, expected, "round {round} m {m}");
        }
    }

    #[test]
    fn scratch_reuse_leaks_no_state() {
        // Two consecutive plans through ONE scratch must equal two plans
        // through fresh scratches, for differently-shaped inputs in both
        // orders (shrinking and growing n and m across calls).
        let sched = DpScheduler::default();
        let inputs: Vec<ScheduleInput> = vec![
            random_instance(3, 8, 4),
            random_instance(9, 2, 6),
            random_instance(1, 5, 1),
            random_instance(7, 1, 3),
            tied_instance(5, 6, 8),
        ];
        let mut shared = SchedScratch::new();
        let mut out = SchedulePlan::empty(0);
        for (i, a) in inputs.iter().enumerate() {
            for b in &inputs[i..] {
                for input in [a, b, a] {
                    sched.plan_into(input, &mut shared, &mut out);
                    let mut fresh = SchedScratch::new();
                    let mut fresh_out = SchedulePlan::empty(0);
                    sched.plan_into(input, &mut fresh, &mut fresh_out);
                    assert_eq!(out, fresh_out, "scratch state leaked between plans");
                    assert_eq!(out.frontier, fresh_out.frontier);
                    assert_eq!(shared.stats(), fresh.stats());
                }
            }
        }
    }

    #[test]
    fn invalid_delta_falls_back_to_default() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let sched = DpScheduler { delta: bad, ..DpScheduler::default() };
            assert_eq!(sched.effective_delta(), DpScheduler::default().delta, "delta {bad}");
        }
        let sched = DpScheduler { delta: 0.25, ..DpScheduler::default() };
        assert_eq!(sched.effective_delta(), 0.25);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "delta must be positive and finite")]
    fn invalid_delta_asserts_in_debug_builds() {
        let sched = DpScheduler { delta: 0.0, ..DpScheduler::default() };
        let _ = sched.plan(&random_instance(0, 2, 2));
    }

    #[test]
    fn steady_state_stats_are_reproducible() {
        // Same input through a warm scratch yields the same counters — the
        // property the size-grid test pins them by.
        let sched = DpScheduler::default();
        let input = random_instance(11, 6, 3);
        let mut scratch = SchedScratch::new();
        let mut out = SchedulePlan::empty(0);
        sched.plan_into(&input, &mut scratch, &mut out);
        let first = scratch.stats();
        assert!(first.nodes_expanded > 0 && first.nodes_kept > 0);
        sched.plan_into(&input, &mut scratch, &mut out);
        assert_eq!(scratch.stats(), first);
    }

    /// Plans `input` through the reused `shared` scratch and through a
    /// fresh one, and checks both against the reference: same plan, same
    /// frontier, same counters.
    fn plan_matches_fresh(sched: &DpScheduler, input: &ScheduleInput, shared: &mut SchedScratch) {
        let mut out = SchedulePlan::empty(0);
        sched.plan_into(input, shared, &mut out);
        let mut fresh = SchedScratch::new();
        let mut fresh_out = SchedulePlan::empty(0);
        sched.plan_into(input, &mut fresh, &mut fresh_out);
        assert_eq!(out, fresh_out, "the cached lists changed a plan");
        assert_eq!(out.frontier, fresh_out.frontier);
        assert_eq!(shared.stats(), fresh.stats());
        assert_eq!(out, reference::plan(sched, input));
    }

    /// `input` with every utility row copied behind a new `Arc`.
    fn with_fresh_rows(input: &ScheduleInput) -> ScheduleInput {
        let mut copy = input.clone();
        for q in &mut copy.queries {
            q.utilities = Arc::from(&q.utilities[..]);
        }
        copy
    }

    #[test]
    fn cached_lists_serve_equal_rows_behind_new_arcs() {
        let sched = DpScheduler::default();
        let mut shared = SchedScratch::new();
        for seed in 0..10 {
            let input = tied_instance(seed, 8, 6);
            for input in [&input, &with_fresh_rows(&input), &input] {
                plan_matches_fresh(&sched, input, &mut shared);
            }
        }
    }

    #[test]
    fn cached_lists_follow_latencies_that_change_between_plans() {
        // The same rows (same `Arcs`) under other latencies: a zero latency,
        // reordered ones, and latencies that change which subsets survive.
        let sched = DpScheduler::default();
        let mut shared = SchedScratch::new();
        for seed in 0..10 {
            let mut input = tied_instance(seed, 8, 5);
            for round in 0..4u64 {
                plan_matches_fresh(&sched, &input, &mut shared);
                input.latencies.rotate_left(1);
                input.latencies[0] = ms(5 * round);
            }
        }
    }

    #[test]
    fn cached_lists_follow_delta_that_changes_between_plans() {
        let mut shared = SchedScratch::new();
        for seed in 0..10 {
            let input = tied_instance(seed, 10, 6);
            for delta in [0.01, 0.05, 0.01, 0.2, 0.001] {
                plan_matches_fresh(&DpScheduler::with_delta(delta), &input, &mut shared);
            }
        }
    }

    #[test]
    fn cached_lists_survive_more_distinct_rows_than_the_bound() {
        use crate::scheduler::scratch::CACHED_ROWS;
        // Every query its own row: a stream of small plans that overflows
        // the cache several times, then one plan with more distinct rows
        // than the bound, then the small plans again.
        let mut shared = SchedScratch::new();
        let small = DpScheduler::default();
        let wide = DpScheduler { max_queries: CACHED_ROWS + 8, ..DpScheduler::default() };
        let inputs: Vec<ScheduleInput> = (0..3 * CACHED_ROWS as u64 / 4)
            .map(|seed| with_fresh_rows(&random_instance(seed, 4, 4)))
            .collect();
        for input in &inputs {
            plan_matches_fresh(&small, input, &mut shared);
        }
        let mut many = random_instance(99, CACHED_ROWS + 8, 3);
        for q in &mut many.queries {
            q.deadline = at(10_000);
        }
        plan_matches_fresh(&wide, &many, &mut shared);
        for input in inputs.iter().rev() {
            plan_matches_fresh(&small, input, &mut shared);
        }
    }

    #[test]
    fn cached_lists_serve_two_schedulers_interleaved() {
        let a = DpScheduler::default();
        let b = DpScheduler { delta: 0.05, max_frontier: 8, max_queries: 5 };
        let c = DpScheduler { max_frontier: 2, ..DpScheduler::default() };
        let mut shared = SchedScratch::new();
        for seed in 0..15 {
            let input = tied_instance(seed, 9, 1 + seed as usize % 8);
            for sched in [&a, &b, &a, &c, &b] {
                plan_matches_fresh(sched, &input, &mut shared);
            }
        }
    }

    #[test]
    fn use_counts_past_one_word_and_past_a_byte_match_reference() {
        // More than eight models take two words per node; more than 127
        // layers take a word per model, and with deadlines this loose a
        // model is chosen more than 127 times along one path.
        for seed in 0..3u64 {
            let input = random_instance(seed, 3, 10);
            let sched = DpScheduler { max_frontier: 16, ..DpScheduler::default() };
            assert_eq!(sched.plan(&input), reference::plan(&sched, &input), "seed {seed} m 10");
        }
        let mut long = random_instance(5, 140, 2);
        for q in &mut long.queries {
            q.deadline = at(1_000_000);
        }
        let sched = DpScheduler { max_frontier: 8, max_queries: 140, ..DpScheduler::default() };
        let plan = sched.plan(&long);
        let uses = plan.assignments.iter().filter(|set| set.contains(0)).count();
        assert!(uses > 127, "model 0 chosen {uses} times");
        assert_eq!(plan, reference::plan(&sched, &long));
    }

    #[test]
    fn use_lanes_compare_like_the_finish_times_they_count() {
        use rand::Rng;
        // Two paths share a random prefix of choices and then diverge for a
        // few layers; their use counts must compare exactly as the finish
        // times they imply do, zero-latency model included, in byte lanes,
        // in words per model, and over more than one word.
        let mut rng = schemble_sim::rng::stream_rng(31, "use-lanes");
        let (mut le, mut not_le) = (0, 0);
        for (m, layers) in [(1, 5), (3, 127), (8, 127), (8, 128), (3, 300), (9, 20), (12, 40)] {
            let mut latencies: Vec<SimDuration> =
                (0..m).map(|_| ms(rng.random_range(1..30))).collect();
            latencies[rng.random_range(0..m)] = ms(0);
            let lanes = UseLanes::new(&latencies, layers);
            for _ in 0..300 {
                let mut paths: [_; 2] =
                    std::array::from_fn(|_| (vec![0; lanes.words], vec![at(0); m]));
                let shared = rng.random_range(0..layers);
                for step in 0..layers - 1 {
                    let common = ModelSet(rng.random_range(0..1u32 << m));
                    for (uses, times) in &mut paths {
                        let choice = match step < shared {
                            true => common,
                            false => ModelSet(rng.random_range(0..1u32 << m)),
                        };
                        lanes.add(uses, choice);
                        for k in choice.iter() {
                            times[k] += latencies[k];
                        }
                    }
                }
                let [(a_uses, a_times), (b_uses, b_times)] = &paths;
                let expected = a_times.iter().zip(b_times).all(|(a, b)| a <= b);
                assert_eq!(lanes.any_le(a_uses, b_uses), expected, "m {m} layers {layers}");
                assert_eq!(
                    lanes.any_le(b_uses, a_uses),
                    b_times.iter().zip(a_times).all(|(b, a)| b <= a)
                );
                *if expected { &mut le } else { &mut not_le } += 1;
            }
        }
        assert!(le > 100 && not_le > 100, "{le} dominated, {not_le} not");
    }

    #[test]
    fn visited_candidates_on_the_size_grid_are_pinned() {
        // Buffer size × ensemble size over the paper's operating range, one
        // warm scratch for all nine. The counts are exact: the DP is integer
        // and the instances are seeded, so any change is an algorithm change.
        let grid = [
            ((4, 3), 172),
            ((4, 5), 328),
            ((4, 8), 367),
            ((16, 3), 2447),
            ((16, 5), 2493),
            ((16, 8), 2414),
            ((24, 3), 3886),
            ((24, 5), 3099),
            ((24, 8), 3934),
        ];
        let sched = DpScheduler::default();
        let mut scratch = SchedScratch::new();
        let mut out = SchedulePlan::empty(0);
        for ((n, m), visited) in grid {
            let input = grid_instance(n, m, 7);
            for _ in 0..2 {
                sched.plan_into(&input, &mut scratch, &mut out);
                assert_eq!(scratch.stats().nodes_expanded, visited, "n {n} m {m}");
            }
            assert_eq!(out, reference::plan(&sched, &input), "n {n} m {m}");
        }
    }

    /// The size grid's instances: monotone subset utilities, latencies
    /// 15–50 ms, deadlines 60–400 ms.
    fn grid_instance(n: usize, m: usize, seed: u64) -> ScheduleInput {
        use rand::Rng;
        let mut rng = schemble_sim::rng::stream_rng(seed, "bench-sched");
        let latencies: Vec<SimDuration> = (0..m).map(|_| ms(rng.random_range(15..50))).collect();
        let queries = (0..n as u64)
            .map(|id| {
                let mut utilities = vec![0.0; 1 << m];
                let mut masks: Vec<u32> = (1..(1u32 << m)).collect();
                masks.sort_by_key(|s| s.count_ones());
                for &mask in &masks {
                    let set = ModelSet(mask);
                    let mut v: f64 = set
                        .iter()
                        .map(|k| 0.5 + 0.12 * k as f64 + rng.random_range(0.0..0.08))
                        .fold(0.0, f64::max);
                    for k in set.iter() {
                        let sub = set.without(k);
                        if !sub.is_empty() {
                            v = v.max(utilities[sub.0 as usize]);
                        }
                    }
                    utilities[mask as usize] = v.min(1.0);
                }
                BufferedQuery {
                    id,
                    arrival: at(id),
                    deadline: at(rng.random_range(60..400)),
                    utilities: utilities.into(),
                    score: rng.random_range(0.0..1.0),
                }
            })
            .collect();
        ScheduleInput { now: at(0), availability: vec![at(0); m], latencies, queries }
    }

    /// Instances built to tie: utilities snapped to a 0.05 grid (after the
    /// monotone repair, so supersets often equal their subsets), one model
    /// with zero latency, and queries drawing from at most three shared
    /// utility tables.
    fn tied_instance(seed: u64, n: usize, m: usize) -> ScheduleInput {
        use rand::Rng;
        let mut rng = schemble_sim::rng::stream_rng(seed, "sched-tied-instance");
        let mut input = random_instance(seed, n, m);
        input.latencies[rng.random_range(0..m)] = ms(0);
        let tables: Vec<Arc<[f64]>> = input
            .queries
            .iter()
            .take(3)
            .map(|q| q.utilities.iter().map(|u| (u / 0.05).round() * 0.05).collect())
            .collect();
        for q in &mut input.queries {
            q.utilities = Arc::clone(&tables[rng.random_range(0..tables.len())]);
        }
        input
    }

    /// Deterministic pseudo-random small instance generator for tests.
    pub(crate) fn random_instance(seed: u64, n: usize, m: usize) -> ScheduleInput {
        use rand::Rng;
        let mut rng = schemble_sim::rng::stream_rng(seed, "sched-instance");
        let latencies: Vec<SimDuration> = (0..m).map(|_| ms(rng.random_range(5..40))).collect();
        let queries = (0..n as u64)
            .map(|id| {
                // Random monotone utility vector.
                let mut utilities = vec![0.0; 1 << m];
                for set in ModelSet::all_nonempty(m) {
                    let base: f64 = set
                        .iter()
                        .map(|k| 0.3 + 0.2 * (k as f64) + rng.random_range(0.0..0.1))
                        .fold(0.0, f64::max);
                    utilities[set.0 as usize] = (base + 0.08 * set.len() as f64).min(1.0);
                }
                // Monotone repair.
                let mut masks: Vec<u32> = (1..(1u32 << m)).collect();
                masks.sort_by_key(|s| s.count_ones());
                for &mask in &masks {
                    let set = ModelSet(mask);
                    for k in set.iter() {
                        let sub = set.without(k);
                        if !sub.is_empty() {
                            utilities[mask as usize] =
                                utilities[mask as usize].max(utilities[sub.0 as usize]);
                        }
                    }
                }
                query(id, rng.random_range(20..120), utilities)
            })
            .collect();
        ScheduleInput { now: at(0), availability: vec![at(0); m], latencies, queries }
    }
}
