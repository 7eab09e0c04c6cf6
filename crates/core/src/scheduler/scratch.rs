//! Reusable scheduler scratch memory.
//!
//! Re-planning happens on *every* arrival and task completion, so the
//! scheduler's working memory is the hottest allocation site in the whole
//! system. [`SchedScratch`] owns every buffer a [`Scheduler`](super::Scheduler)
//! needs — finish-time arenas, per-layer node storage, sorted subset lists,
//! the merge heap — and is held by the engine across invocations, so a
//! steady-state `plan_into` call allocates nothing: capacity grown on the
//! first few plans is recycled forever after (`bench_dp --features
//! bench-alloc` pins allocations/plan at zero).
//!
//! The finish-time storage is a flat structure-of-arrays arena: node `i`'s
//! per-model times live at `times[i * m .. (i + 1) * m]` instead of one
//! `Vec<SimTime>` per node. Node metadata (reward, cached dominance key,
//! parent link, subset choice) lives in parallel `NodeMeta` vectors — the
//! layer merge compares precomputed integer keys and only the candidates it
//! actually visits ever get a time row.

use schemble_models::ModelSet;
use schemble_sim::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Deterministic counters describing the last `plan_into` call.
///
/// These depend only on the problem instance (never on wall-clock or
/// allocator state), which is what lets `bench_dp` gate them tightly in CI
/// while wall-clock numbers get a wide tolerance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DpStats {
    /// Candidate nodes *visited* across all layers: every candidate the
    /// ordered merge popped (and so tested for dominance) before its layer
    /// filled, plus one per frontier node in the streamed final layer.
    /// Candidates the merge never reaches — behind the frontier cap, or
    /// dropped by the per-query subset prefilter — are not counted.
    pub nodes_expanded: u64,
    /// Frontier nodes surviving Pareto pruning, summed over layers.
    pub nodes_kept: u64,
}

/// One DP frontier node, minus its finish-time row (which lives in the
/// arena at `row_index * m`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeMeta {
    /// Quantized cumulative reward in δ units.
    pub u: u64,
    /// Cached dominance key: Σ_k finish-time microseconds. Maintained
    /// incrementally (extending by subset `s` adds Σ_{k∈s} latency_k), so
    /// the merge never walks a time row to order candidates.
    pub total: u128,
    /// Index of the parent node in the previous layer.
    pub parent: u32,
    /// Subset chosen for the query of this layer.
    pub choice: ModelSet,
}

/// One subset a query may be extended with, precomputed once per plan and
/// per distinct utility table.
///
/// Subsets whose quantized reward is zero, or no higher than that of one of
/// their own proper subsets, are filtered out here (see `dp::subset_list`);
/// deadline feasibility is tested per frontier node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SubsetCand {
    pub set: ModelSet,
    /// `⌊reward / δ⌋`, guaranteed non-zero.
    pub quantized: u64,
    /// Σ_{k∈set} latency_k in microseconds — the increment this extension
    /// adds to a node's `total` dominance key.
    pub add_micros: u64,
}

/// The next unvisited candidate of one frontier node in the layer merge.
///
/// `rank` indexes the query's sorted subset list; `rank == list.len()` is
/// the skip-copy (query left unscheduled), which sorts after every
/// extension of the same parent because extensions add reward ≥ 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MergeEntry {
    pub u: u64,
    pub total: u128,
    pub parent: u32,
    pub rank: u32,
}

impl Ord for MergeEntry {
    /// Greatest = visited first: reward descending, then finish-time total,
    /// parent index and rank ascending — the candidate order of the
    /// generate-and-sort formulation.
    fn cmp(&self, other: &Self) -> Ordering {
        self.u
            .cmp(&other.u)
            .then(other.total.cmp(&self.total))
            .then(other.parent.cmp(&self.parent))
            .then(other.rank.cmp(&self.rank))
    }
}

impl PartialOrd for MergeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable working memory for [`Scheduler::plan_into`](super::Scheduler).
///
/// One scratch serves any scheduler and any instance size; buffers grow to
/// the high-water mark and stay there. A scratch carries no decision state
/// between calls — two consecutive plans through one scratch are identical
/// to two plans through fresh scratches (pinned by `dp::tests`).
#[derive(Debug, Default)]
pub struct SchedScratch {
    /// Greedy's mutable availability vector.
    pub(crate) avail: Vec<SimTime>,
    /// Current-layer finish times, row `i` = frontier node `i` (SoA arena).
    pub(crate) prev_times: Vec<SimTime>,
    /// Finish times of the layer being built, row `j` = kept node `j`;
    /// swapped with `prev_times` when the layer is complete.
    pub(crate) next_times: Vec<SimTime>,
    /// Pruned node metadata per layer, kept for backtracking. Inner vectors
    /// are recycled between plans.
    pub(crate) layers: Vec<Vec<NodeMeta>>,
    /// Concatenated sorted subset lists, one per distinct utility table…
    pub(crate) subsets: Vec<SubsetCand>,
    /// …and each planned query's slice of them (`len = planned`).
    pub(crate) lists: Vec<Range<usize>>,
    /// Quantized reward per subset mask for the table being filtered.
    pub(crate) quant: Vec<u64>,
    /// Highest quantized reward among each mask's proper non-empty subsets.
    pub(crate) best_sub: Vec<u64>,
    /// Per frontier node: the models that would finish the current query by
    /// its deadline if started after that node's choices.
    pub(crate) ok_masks: Vec<ModelSet>,
    /// The layer merge's heap: at most one entry per frontier node.
    pub(crate) heap: BinaryHeap<MergeEntry>,
    /// Counters from the most recent `plan_into` call.
    pub stats: DpStats,
}

impl SchedScratch {
    /// A scratch with no warmed capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters from the most recent `plan_into` call.
    pub fn stats(&self) -> DpStats {
        self.stats
    }

    /// Ensures `layers[0..n]` exist (recycled, not reallocated) and clears
    /// per-plan state. Called at the top of every DP plan.
    pub(crate) fn begin_plan(&mut self, n_layers: usize) {
        self.stats = DpStats::default();
        while self.layers.len() < n_layers {
            self.layers.push(Vec::new());
        }
        for layer in &mut self.layers[..n_layers] {
            layer.clear();
        }
        self.prev_times.clear();
        self.next_times.clear();
        self.subsets.clear();
        self.lists.clear();
    }
}
