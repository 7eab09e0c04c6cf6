//! Reusable scheduler scratch memory.
//!
//! Re-planning happens on *every* arrival and task completion, so the
//! scheduler's working memory is the hottest allocation site in the whole
//! system. [`SchedScratch`] owns every buffer a [`Scheduler`](super::Scheduler)
//! needs — finish-time arenas, per-layer node storage, sorted subset lists,
//! the merge heap — and is held by the engine across invocations, so a
//! steady-state `plan_into` call allocates nothing: capacity grown on the
//! first few plans is recycled forever after (`tests/alloc_gate.rs` pins
//! allocations per plan at zero).
//!
//! One thing outlives a plan: the DP's sorted subset lists, cached per
//! utility row. A list is a pure function of its key — the row's contents,
//! the latencies and δ — so the cache is a memo, not decision state. Rows
//! are recognised by `Arc` identity; each entry holds a clone of its row's
//! `Arc`, so the address cannot be reused while the entry lives, and the
//! contents behind it cannot change. New latencies or a new δ clear it.
//!
//! The finish-time storage is a flat structure-of-arrays arena: node `i`'s
//! per-model times live at `times[i * m .. (i + 1) * m]` instead of one
//! `Vec<SimTime>` per node. Node metadata (reward, cached dominance key,
//! parent link, subset choice) lives in parallel `NodeMeta` vectors — the
//! layer merge compares precomputed integer keys and only the candidates it
//! actually visits ever get a time row.

use schemble_models::ModelSet;
use schemble_sim::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::Arc;

/// Most utility rows whose subset lists a scratch keeps between plans. A
/// plan that would take the cache past it clears it first (capacity kept),
/// so a caller with a fresh `Arc` per plan still allocates nothing once
/// warm; a plan of more distinct rows than this holds them all until the
/// next plan clears them.
pub(crate) const CACHED_ROWS: usize = 64;

/// Deterministic counters describing the last `plan_into` call.
///
/// These depend only on the problem instance (never on wall-clock,
/// allocator or cache state), which is what lets the DP's tests pin them
/// exactly.
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

/// One subset a query may be extended with, precomputed once per distinct
/// utility row and kept across plans.
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
        (self.u, other.total, other.parent, other.rank).cmp(&(
            other.u,
            self.total,
            self.parent,
            self.rank,
        ))
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
/// between calls — only the subset-list memo (module docs) — so two
/// consecutive plans through one scratch are identical to two plans through
/// fresh scratches (pinned by `dp::tests`).
#[derive(Debug, Default)]
pub struct SchedScratch {
    /// Greedy's mutable availability vector.
    pub(crate) avail: Vec<SimTime>,
    /// Current-layer finish times, row `i` = frontier node `i` (SoA arena).
    pub(crate) prev_times: Vec<SimTime>,
    /// Finish times of the layer being built, row `j` = kept node `j`;
    /// swapped with `prev_times` when the layer is complete.
    pub(crate) next_times: Vec<SimTime>,
    /// Per-model use counts of the current layer's nodes and of the layer
    /// being built, in `dp::UseLanes` words, parallel to the time rows.
    pub(crate) prev_uses: Vec<u64>,
    pub(crate) next_uses: Vec<u64>,
    /// Pruned node metadata per layer, kept for backtracking. Inner vectors
    /// are recycled between plans.
    pub(crate) layers: Vec<Vec<NodeMeta>>,
    /// Concatenated sorted subset lists, one per cached utility row…
    pub(crate) subsets: Vec<SubsetCand>,
    /// …each cached row and its slice of them (at most [`CACHED_ROWS`]
    /// between plans)…
    rows: Vec<(Arc<[f64]>, Range<usize>)>,
    /// …the latencies and δ (as bits) every cached list was built for…
    list_key: (Vec<SimDuration>, u64),
    /// …and each planned query's slice (`len = planned`).
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
        self.prev_uses.clear();
        self.next_uses.clear();
        self.lists.clear();
    }

    /// Readies the subset-list cache for a plan of `planned` queries with
    /// `latencies` and `delta`: clears it when either differs from the
    /// lists' key, or when `planned` new rows might not fit.
    pub(crate) fn key_lists(&mut self, latencies: &[SimDuration], delta: f64, planned: usize) {
        let (key_latencies, key_delta) = &mut self.list_key;
        let stale = key_latencies[..] != *latencies || *key_delta != delta.to_bits();
        if stale || self.rows.len() + planned > CACHED_ROWS {
            self.rows.clear();
            self.subsets.clear();
        }
        if stale {
            key_latencies.clear();
            key_latencies.extend_from_slice(latencies);
            *key_delta = delta.to_bits();
        }
    }

    /// The cached list of `utilities`' row, if there is one.
    pub(crate) fn cached_list(&self, utilities: &Arc<[f64]>) -> Option<Range<usize>> {
        let (_, range) = self.rows.iter().find(|(row, _)| Arc::ptr_eq(row, utilities))?;
        Some(range.clone())
    }

    /// Files `range` of `subsets` as the list of `utilities`' row.
    pub(crate) fn cache_list(&mut self, utilities: &Arc<[f64]>, range: Range<usize>) {
        self.rows.push((Arc::clone(utilities), range));
    }
}
