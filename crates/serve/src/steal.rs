//! Deterministic inter-shard work stealing at virtual-time epoch boundaries.
//!
//! Hash routing splits the arrival stream across shard engines by key; a
//! skewed key distribution then overloads one shard while the rest idle,
//! and shard scaling plateaus at the hot shard's capacity. This module
//! rebalances *admitted but unplanned* queries across shards without giving
//! up the sharded path's byte-for-byte determinism:
//!
//! * **Epoch rendezvous.** All shard threads pause at every virtual-time
//!   boundary `(r + 1) * epoch` and publish a [`LoadSnapshot`] — eligible
//!   queue depth and predicted backlog in integer microseconds — and none
//!   resumes before the round's plan exists. The rendezvous is a
//!   *synchronous* protocol: no shard's engine advances while a transfer is
//!   being decided, so the decision inputs cannot race with execution.
//! * **Pure transfer plan.** The victim/thief pairing and transfer counts
//!   are computed by [`transfer_plan`] — a pure function of the snapshot
//!   vector and the round index, with integer arithmetic and a
//!   round-rotated tie-break. No thread timing, RNG state or map iteration
//!   order feeds into it, which is what keeps DES and virtual-clock runs
//!   byte-identical, and `--steal-epoch-ms` off byte-identical to a build
//!   without this module.
//! * **Deterministic exchange.** Victims deposit released queries into
//!   per-thief inboxes, then all shards meet a second time; each thief
//!   sorts its inbox by `(victim, global id)` before adopting, so adoption
//!   order — and hence the thief's local-id assignment — is independent of
//!   which victim thread ran first. A round whose plan is *empty* (most of
//!   them) deposits nothing, so it skips the second meeting.
//! * **Two slots, one wait.** Round state lives in two slots indexed by
//!   round parity. After an empty plan a fast shard goes on to publish
//!   round `r + 1` into the other slot while a slow one is still reading
//!   plan `r`; it can get no further, because plan `r + 1` needs the slow
//!   shard's snapshot too — so shards are never more than one round apart
//!   and slot `r % 2` is free for reuse by the time anyone reaches `r + 2`.
//!   A waiting shard polls a published-round counter — a short spin, then
//!   `yield_now` — before it parks on the condvar: the peer is usually
//!   microseconds away, and yielding hands it the core when both threads
//!   share one. None of this changes *what* is decided: plans are the same
//!   pure function of the same snapshots in the same round order.
//!
//! A shard that finishes its trace keeps rendezvousing with an empty
//! snapshot (it may yet become a thief); the coordinator stops the protocol
//! once every shard is done and the plan is empty. A shard that *exits*
//! early (wall-clock wedge breaker, channel disconnect) detaches instead,
//! and the barriers recompute around it — a steal racing a crash window
//! therefore resolves deterministically: either the rendezvous completes
//! with the shard, or the shard is detached for the whole round.

use crate::clock::DilatedClock;
use schemble_core::backend::ExecutionBackend;
use schemble_core::engine::{PipelineEngine, StealLineage, StolenQuery};
use schemble_sim::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering::Acquire, Ordering::Release};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// One shard's published load at an epoch boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadSnapshot {
    /// Steal-eligible queries (admitted, scored, nothing started).
    pub depth: u64,
    /// Predicted service demand of those queries, integer microseconds.
    pub backlog_us: u64,
    /// The shard has replayed its whole trace and holds no open queries.
    pub done: bool,
}

/// One planned transfer: `count` queries move from `victim` to `thief`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Shard releasing queries.
    pub victim: u16,
    /// Shard adopting them.
    pub thief: u16,
    /// Queries to move.
    pub count: u32,
    /// Victim's snapshot depth (stamped into lineage).
    pub victim_depth: u32,
    /// Thief's snapshot depth (stamped into lineage).
    pub thief_depth: u32,
}

/// Computes the round's transfer plan from the snapshot vector.
///
/// Pure function: integer arithmetic only, ties broken by the round-rotated
/// key `(shard + round) % shards`, so every shard computes the identical
/// plan and no platform or timing artifact can perturb it. Greedy: while
/// the gap between the most- and least-loaded shards exceeds the victim's
/// average per-query cost, move one (average-cost) query; iterations are
/// capped by the total depth so the loop always terminates.
pub fn transfer_plan(snapshots: &[LoadSnapshot], round: u64) -> Vec<Transfer> {
    let s = snapshots.len();
    // No shard holds an eligible query (most rounds): nothing can move.
    if s < 2 || snapshots.iter().all(|x| x.depth == 0) {
        return Vec::new();
    }
    let mut depth: Vec<u64> = snapshots.iter().map(|x| x.depth).collect();
    let mut backlog: Vec<u64> = snapshots.iter().map(|x| x.backlog_us).collect();
    // moves[v * s + t] = queries moved from v to t.
    let mut moves = vec![0u32; s * s];
    let cap: u64 = depth.iter().sum();
    for _ in 0..cap {
        let key = |i: usize| (backlog[i], (i as u64 + round) % s as u64);
        let Some(v) = (0..s).filter(|&i| depth[i] > 0).max_by_key(|&i| key(i)) else { break };
        let Some(t) = (0..s).filter(|&i| i != v).min_by_key(|&i| key(i)) else { break };
        let gap = backlog[v].saturating_sub(backlog[t]);
        let avg = backlog[v] / depth[v];
        if gap <= avg || avg == 0 {
            break;
        }
        depth[v] -= 1;
        backlog[v] -= avg;
        depth[t] += 1;
        backlog[t] += avg;
        moves[v * s + t] += 1;
    }
    let mut plan = Vec::new();
    for v in 0..s {
        // The loop above may route a query *through* a shard (1 -> 2, then
        // 2 -> 0), but a shard can only release what it held at the
        // snapshot: the second hop waits for the next round.
        let mut held = snapshots[v].depth;
        for t in 0..s {
            let count = (moves[v * s + t] as u64).min(held) as u32;
            held -= count as u64;
            if count > 0 {
                plan.push(Transfer {
                    victim: v as u16,
                    thief: t as u16,
                    count,
                    victim_depth: snapshots[v].depth.min(u32::MAX as u64) as u32,
                    thief_depth: snapshots[t].depth.min(u32::MAX as u64) as u32,
                });
            }
        }
    }
    plan
}

/// What a rendezvous resolved to.
#[derive(Debug)]
pub enum Rendezvous {
    /// Execute this round: release per the plan, deposit, then exchange.
    Round(Vec<Transfer>),
    /// Every shard is done and nothing is left to move: stop rendezvousing.
    Stop,
}

/// What a detached shard counts as in every later plan: idle and done.
const DETACHED: LoadSnapshot = LoadSnapshot { depth: 0, backlog_us: 0, done: true };

/// Polls of the published-round counter before a waiting shard parks: a
/// short busy spin for a peer that is already publishing, then yields. The
/// yields are the point — the peer is typically ~20 µs of engine work away,
/// less than a futex sleep and wake costs, and when both shard threads
/// share one core `yield_now` hands it to the peer where a pure spin would
/// burn the time slice the peer needs to arrive.
const SPIN_POLLS: u32 = 64;
const YIELD_POLLS: u32 = 256;

/// One round's rendezvous state. The coordinator holds two, indexed by
/// round parity, so a fast shard can publish round `r + 1` while a slow one
/// is still reading the plan of round `r`.
struct RoundSlot {
    /// The round this slot currently holds.
    round: u64,
    /// Which shards have published this round.
    arrived: Vec<bool>,
    /// Which shards have called exchange this round (non-empty plans only).
    exchanged: Vec<bool>,
    snapshots: Vec<LoadSnapshot>,
    plan: Vec<Transfer>,
    plan_ready: bool,
    /// Every live shard has exchanged: inboxes are complete.
    exchange_done: bool,
}

impl RoundSlot {
    fn new(shards: usize, round: u64) -> Self {
        Self {
            round,
            arrived: vec![false; shards],
            exchanged: vec![false; shards],
            snapshots: vec![DETACHED; shards],
            plan: Vec::new(),
            plan_ready: false,
            exchange_done: false,
        }
    }

    /// Re-initialises the slot for `round`. Snapshots start out as
    /// [`DETACHED`]: live shards overwrite theirs when they publish, and the
    /// plan is not computed before all of them have.
    fn reset(&mut self, round: u64) {
        self.round = round;
        self.arrived.fill(false);
        self.exchanged.fill(false);
        self.snapshots.fill(DETACHED);
        self.plan.clear();
        self.plan_ready = false;
        self.exchange_done = false;
    }
}

struct CoordState {
    /// Round `r` lives in `slots[r % 2]`.
    slots: [RoundSlot; 2],
    /// Shards that exited their run loop early and left the protocol.
    detached: Vec<bool>,
    /// Per-thief inboxes of in-flight transfers.
    inboxes: Vec<Vec<(StolenQuery, StealLineage)>>,
    /// Consecutive rounds where every shard was done yet the plan still
    /// moved queries — the livelock breaker for work nothing can run.
    all_done_rounds: u32,
    stopped: bool,
}

/// Shared rendezvous state for `shards` shard threads. Create once, then
/// hand each shard thread a [`StealHandle`] via [`StealCoordinator::handle`].
pub struct StealCoordinator {
    epoch: SimDuration,
    shards: usize,
    state: Mutex<CoordState>,
    cv: Condvar,
    /// Number of rounds whose plan is ready, `u64::MAX` once stopped. Only
    /// a hint that lets a waiting shard poll without the lock: the plan
    /// itself is always read under `state`. Stored with `Release` after the
    /// plan is written, polled with `Acquire`.
    published: AtomicU64,
    /// Whether a waiting shard polls `published` before parking. Off on a
    /// single core, where the peer cannot be running while this shard polls.
    poll: bool,
    /// Sim time zero of every wall-clock shard: a query stolen at a
    /// boundary arrived at the same instant on the thief's clock as on the
    /// victim's, so its latency can never come out negative.
    origin: Instant,
}

impl StealCoordinator {
    /// A coordinator for `shards` shards pausing every `epoch`.
    pub fn new(shards: usize, epoch: SimDuration) -> Arc<Self> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::with_wait(shards, epoch, cores > 1)
    }

    /// [`new`](StealCoordinator::new) with the wait policy picked by hand.
    fn with_wait(shards: usize, epoch: SimDuration, poll: bool) -> Arc<Self> {
        Arc::new(Self {
            epoch,
            shards,
            state: Mutex::new(CoordState {
                slots: [RoundSlot::new(shards, 0), RoundSlot::new(shards, 1)],
                detached: vec![false; shards],
                inboxes: (0..shards).map(|_| Vec::new()).collect(),
                all_done_rounds: 0,
                stopped: false,
            }),
            cv: Condvar::new(),
            published: AtomicU64::new(0),
            poll,
            origin: Instant::now(),
        })
    }

    /// The epoch length.
    pub fn epoch(&self) -> SimDuration {
        self.epoch
    }

    /// The handle shard `shard`'s thread drives the protocol through.
    /// `global_ids` is the shard's local-to-global id map (adopted queries
    /// extend it; released ones are recorded against it).
    pub fn handle(self: &Arc<Self>, shard: u16, global_ids: Vec<u64>) -> StealHandle {
        StealHandle {
            coord: Arc::clone(self),
            shard: shard as usize,
            round: 0,
            exchange_pending: false,
            global_ids: Arc::new(Mutex::new(global_ids)),
            released_slots: Vec::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CoordState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Polls for the plan of `round` without the lock, within the budget.
    /// Returning proves nothing; the caller re-checks under the lock.
    fn poll_published(&self, round: u64) {
        if !self.poll {
            return;
        }
        for polls in 0..SPIN_POLLS + YIELD_POLLS {
            if self.published.load(Acquire) > round {
                return;
            }
            if polls < SPIN_POLLS {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// If every non-detached shard has published into `slots[parity]`, close
    /// its publish phase: compute the plan, or stop the protocol when
    /// nothing is left to do.
    fn try_finish_publish(&self, st: &mut CoordState, parity: usize) {
        let slot = &mut st.slots[parity];
        if st.stopped || slot.plan_ready {
            return;
        }
        let all_in = slot.arrived.iter().zip(&st.detached).all(|(&a, &d)| a || d);
        if !all_in {
            return;
        }
        let plan = transfer_plan(&slot.snapshots, slot.round);
        let all_done = slot.snapshots.iter().zip(&st.detached).all(|(s, &d)| s.done || d);
        if all_done {
            if plan.is_empty() || st.all_done_rounds >= self.shards as u32 {
                // Nothing to move — or the remaining queries have already
                // been offered to every shard (rotated tie-break) and
                // nothing could run them: stop instead of bouncing them
                // between wedged shards forever.
                st.stopped = true;
                self.published.store(u64::MAX, Release);
                self.cv.notify_all();
                return;
            }
            st.all_done_rounds += 1;
        } else {
            st.all_done_rounds = 0;
        }
        slot.plan = plan;
        slot.plan_ready = true;
        self.published.store(slot.round + 1, Release);
        self.cv.notify_all();
    }

    /// If every non-detached shard has exchanged in `slots[parity]`, release
    /// them to collect their inboxes.
    fn try_finish_exchange(&self, st: &mut CoordState, parity: usize) {
        let slot = &mut st.slots[parity];
        if st.stopped || !slot.plan_ready || slot.exchange_done {
            return;
        }
        let all_in = slot.exchanged.iter().zip(&st.detached).all(|(&e, &d)| e || d);
        if all_in {
            slot.exchange_done = true;
            self.cv.notify_all();
        }
    }
}

/// One shard thread's view of the rendezvous protocol. Drives three calls
/// per round — [`rendezvous`](StealHandle::rendezvous), zero or more
/// [`deposit`](StealHandle::deposit)s, then
/// [`exchange`](StealHandle::exchange) — or [`detach`](StealHandle::detach)
/// to leave for good.
pub struct StealHandle {
    coord: Arc<StealCoordinator>,
    shard: usize,
    round: u64,
    /// The current round's plan moves queries, so its `exchange` must meet
    /// the peers. An empty plan deposits nothing and needs no second
    /// barrier.
    exchange_pending: bool,
    /// Local query id -> global query id; adopted queries push onto it.
    /// Shared with whoever globalizes this shard's trace while it runs.
    global_ids: Arc<Mutex<Vec<u64>>>,
    /// Local record slots this shard released — each slot went stale the
    /// moment its query left (a re-adoption gets a *fresh* slot, so stale
    /// slots never come back to life).
    released_slots: Vec<u64>,
}

impl StealHandle {
    /// This handle's shard id.
    pub fn shard(&self) -> u16 {
        self.shard as u16
    }

    /// This shard's wall clock, counting from the coordinator's origin.
    pub(crate) fn clock(&self, dilation: f64) -> DilatedClock {
        DilatedClock::starting_at(self.coord.origin, dilation)
    }

    /// The next epoch boundary this shard must rendezvous at.
    pub fn next_boundary(&self) -> SimTime {
        SimTime::from_micros(self.coord.epoch.as_micros() * (self.round + 1))
    }

    /// The shard's local-to-global id map, shared: adoption extends it.
    /// An adopted query's id is in it before the first trace event naming
    /// the query is emitted, so a reader that drains this shard's trace
    /// sink and then locks the map finds every id the drained events name
    /// (the sink's lock orders the two).
    pub fn id_map(&self) -> Arc<Mutex<Vec<u64>>> {
        Arc::clone(&self.global_ids)
    }

    /// The local record slots this shard released (stale: their queries
    /// live on elsewhere).
    pub fn into_released_slots(mut self) -> Vec<u64> {
        std::mem::take(&mut self.released_slots)
    }

    /// Publishes this shard's snapshot for the current round and waits
    /// until the plan is ready (or the protocol stopped): polling first,
    /// parked on the condvar if the peers take longer than the budget.
    pub fn rendezvous(&mut self, snapshot: LoadSnapshot) -> Rendezvous {
        let coord = &*self.coord;
        let parity = (self.round % 2) as usize;
        let mut st = coord.lock();
        if st.stopped {
            return Rendezvous::Stop;
        }
        let slot = &mut st.slots[parity];
        if slot.round != self.round {
            // The slot still holds round - 2. Every live shard is past it:
            // this shard got here through plan `round - 1`, which needed
            // every live shard's snapshot for `round - 1`, and a shard
            // publishes that only after finishing `round - 2`.
            debug_assert_eq!(slot.round + 2, self.round, "shard rendezvoused out of round");
            slot.reset(self.round);
        }
        slot.snapshots[self.shard] = snapshot;
        slot.arrived[self.shard] = true;
        coord.try_finish_publish(&mut st, parity);
        if !st.stopped && !st.slots[parity].plan_ready {
            drop(st);
            coord.poll_published(self.round);
            st = coord.lock();
            while !st.stopped && !st.slots[parity].plan_ready {
                st = coord.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
        if st.stopped {
            return Rendezvous::Stop;
        }
        let plan = st.slots[parity].plan.clone();
        self.exchange_pending = !plan.is_empty();
        Rendezvous::Round(plan)
    }

    /// Deposits released queries for `transfer.thief`'s inbox, stamping
    /// each with this round's lineage. Call between
    /// [`rendezvous`](StealHandle::rendezvous) and
    /// [`exchange`](StealHandle::exchange), only for transfers whose victim
    /// is this shard.
    pub fn deposit(&self, transfer: &Transfer, queries: Vec<StolenQuery>) {
        debug_assert_eq!(transfer.victim, self.shard as u16);
        let lineage = StealLineage {
            epoch: self.round.min(u32::MAX as u64) as u32,
            victim: transfer.victim,
            thief: transfer.thief,
            victim_depth: transfer.victim_depth,
            thief_depth: transfer.thief_depth,
        };
        let mut st = self.coord.lock();
        st.inboxes[transfer.thief as usize].extend(queries.into_iter().map(|q| (q, lineage)));
    }

    /// Ends this shard's round and advances the handle to the next. After
    /// an empty plan nothing was deposited anywhere, so the inbox is empty
    /// and there is nobody to wait for. Otherwise: marks this shard's
    /// deposits complete, waits for every shard's, and collects this
    /// shard's inbox — sorted by `(victim, global id)` so adoption order
    /// never depends on victim thread timing.
    pub fn exchange(&mut self) -> Vec<(StolenQuery, StealLineage)> {
        let parity = (self.round % 2) as usize;
        self.round += 1;
        if !std::mem::take(&mut self.exchange_pending) {
            return Vec::new();
        }
        let coord = &*self.coord;
        let mut st = coord.lock();
        st.slots[parity].exchanged[self.shard] = true;
        coord.try_finish_exchange(&mut st, parity);
        while !st.stopped && !st.slots[parity].exchange_done {
            st = coord.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        let mut mine = std::mem::take(&mut st.inboxes[self.shard]);
        drop(st);
        mine.sort_by_key(|(q, lin)| (lin.victim, q.query.id));
        mine
    }

    /// Leaves the protocol permanently (early exit: wedge breaker, channel
    /// disconnect, or normal end after a [`Rendezvous::Stop`], where it is
    /// a no-op). The barriers recompute without this shard, so the others
    /// never block on it again. Peers may be one round apart, so both
    /// slots take the shard's done-snapshot and both are re-evaluated.
    pub fn detach(&mut self) {
        let coord = &*self.coord;
        let mut st = coord.lock();
        if st.stopped || st.detached[self.shard] {
            return;
        }
        st.detached[self.shard] = true;
        for parity in 0..2 {
            st.slots[parity].snapshots[self.shard] = DETACHED;
            coord.try_finish_publish(&mut st, parity);
            coord.try_finish_exchange(&mut st, parity);
        }
    }
}

impl Drop for StealHandle {
    /// A shard thread that unwinds mid-protocol (panic, bug) must not
    /// leave its peers blocked at a barrier forever: dropping the handle
    /// detaches, so the panic surfaces at `join` instead of deadlocking.
    fn drop(&mut self) {
        self.detach();
    }
}

/// A shard's id map, locked; a peer that panicked holding it left it whole.
fn lock_ids(ids: &Mutex<Vec<u64>>) -> MutexGuard<'_, Vec<u64>> {
    ids.lock().unwrap_or_else(|e| e.into_inner())
}

/// Executes one rendezvoused round for this shard: releases and deposits
/// what the plan demands, exchanges, adopts, and — only if this shard
/// actually transferred something — re-plans via
/// [`PipelineEngine::on_rebalanced`]. Returns whether anything moved here
/// (a zero-transfer round leaves the engine byte-untouched).
pub fn execute_steal_round(
    engine: &mut dyn PipelineEngine,
    backend: &mut dyn ExecutionBackend,
    handle: &mut StealHandle,
    plan: &[Transfer],
    now: SimTime,
) -> bool {
    let me = handle.shard();
    let mut released_any = false;
    for transfer in plan.iter().filter(|t| t.victim == me) {
        let mut queries = engine.release_for_steal(transfer.count as usize, now);
        debug_assert_eq!(
            queries.len(),
            transfer.count as usize,
            "snapshot promised more eligible queries than release found"
        );
        let ids = lock_ids(&handle.global_ids);
        for q in &mut queries {
            // Cross the shard boundary under the *global* id; the thief
            // re-localises at adoption.
            let global = ids[q.query.id as usize];
            handle.released_slots.push(q.query.id);
            q.query.id = global;
        }
        drop(ids);
        released_any = true;
        handle.deposit(transfer, queries);
    }
    let adopted = handle.exchange();
    let adopted_any = !adopted.is_empty();
    // Adoption hands out local ids in order, so the ids go into the map
    // first: the adoption's trace events name queries the map already has.
    let first = {
        let mut ids = lock_ids(&handle.global_ids);
        let first = ids.len();
        ids.extend(adopted.iter().map(|(stolen, _)| stolen.query.id));
        first
    };
    for (i, (stolen, lineage)) in adopted.into_iter().enumerate() {
        let local = engine.adopt_stolen(stolen, lineage, now);
        debug_assert_eq!(local as usize, first + i);
    }
    if released_any || adopted_any {
        engine.on_rebalanced(now, backend);
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemble_data::Query;
    use schemble_models::{Label, Sample};
    use schemble_sim::rng::splitmix64;

    fn snap(depth: u64, backlog_us: u64) -> LoadSnapshot {
        LoadSnapshot { depth, backlog_us, done: false }
    }

    #[test]
    fn every_shard_clock_counts_from_the_coordinators_origin() {
        let coord = StealCoordinator::new(2, SimDuration::from_millis(50));
        let first = coord.handle(0, Vec::new()).clock(100.0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let second = coord.handle(1, Vec::new()).clock(100.0);
        assert_eq!(first, second, "both shards count from one origin");
        assert_ne!(first, DilatedClock::start(100.0), "a clock of its own starts later");
    }

    #[test]
    fn balanced_load_plans_no_transfers() {
        let snaps = [snap(3, 300), snap(3, 300), snap(3, 300)];
        assert!(transfer_plan(&snaps, 0).is_empty());
        // A gap within one average query cost is left alone too.
        let close = [snap(3, 300), snap(3, 250)];
        assert!(transfer_plan(&close, 0).is_empty());
    }

    #[test]
    fn skewed_load_moves_queries_toward_the_idle_shard() {
        let snaps = [snap(8, 8_000), snap(0, 0)];
        let plan = transfer_plan(&snaps, 0);
        assert_eq!(plan.len(), 1);
        let t = plan[0];
        assert_eq!((t.victim, t.thief), (0, 1));
        // Greedy equalisation: moves stop once the gap closes to within one
        // average cost — about half the queue.
        assert!((3..=4).contains(&t.count), "moved {} of 8", t.count);
        assert_eq!((t.victim_depth, t.thief_depth), (8, 0));
    }

    #[test]
    fn plan_is_a_pure_function_of_snapshots_and_round() {
        let snaps = [snap(10, 5_000), snap(2, 400), snap(0, 0), snap(5, 2_500)];
        for round in [0u64, 1, 7] {
            assert_eq!(transfer_plan(&snaps, round), transfer_plan(&snaps, round));
        }
        // The rotated tie-break resolves exact ties differently across
        // rounds without ever consulting anything but (snapshots, round):
        // exactly one query moves here, and the two idle shards tie for it.
        let tied = [snap(2, 1_200), snap(0, 0), snap(0, 0)];
        let r0 = transfer_plan(&tied, 0);
        let r1 = transfer_plan(&tied, 1);
        assert_eq!(r0.iter().map(|t| t.count).sum::<u32>(), 1);
        assert_eq!(r1.iter().map(|t| t.count).sum::<u32>(), 1);
        assert_ne!(r0[0].thief, r1[0].thief, "rotation should re-order tied thieves");
    }

    #[test]
    fn plan_never_moves_more_than_the_victim_holds() {
        let snaps = [snap(2, 1_000_000), snap(0, 0), snap(0, 0)];
        let plan = transfer_plan(&snaps, 3);
        let from0: u32 = plan.iter().filter(|t| t.victim == 0).map(|t| t.count).sum();
        assert!(from0 <= 2, "victim held 2, plan moved {from0}");
        assert!(plan.iter().all(|t| t.victim != t.thief));
        // Single shard: nothing to pair with.
        assert!(transfer_plan(&[snap(9, 9_000)], 0).is_empty());
        // Nor more than it held at the snapshot, when the greedy loop routes
        // a query through a shard on its way to a third.
        for case in 0..2_000u64 {
            let snaps: Vec<LoadSnapshot> = (0..4)
                .map(|shard| {
                    let h = splitmix64(case * 4 + shard);
                    snap(h % 5, (h % 5) * (1 + (h >> 8) % 50_000))
                })
                .collect();
            let plan = transfer_plan(&snaps, case);
            for (v, held) in snaps.iter().enumerate() {
                let out: u64 =
                    plan.iter().filter(|t| t.victim as usize == v).map(|t| t.count as u64).sum();
                assert!(out <= held.depth, "shard {v} of {snaps:?} releases {out}: {plan:?}");
            }
        }
    }

    #[test]
    fn coordinator_runs_rounds_then_stops_when_all_done() {
        let coord = StealCoordinator::new(2, SimDuration::from_millis(10));
        let a = coord.handle(0, vec![0, 2, 4]);
        let b = coord.handle(1, vec![1, 3]);
        let run = |mut h: StealHandle, loaded: bool| {
            std::thread::spawn(move || {
                assert_eq!(h.next_boundary(), SimTime::from_millis(10));
                // Round 0: one side overloaded — a transfer must be planned.
                let snapshot = if loaded {
                    snap(4, 4_000)
                } else {
                    LoadSnapshot { depth: 0, backlog_us: 0, done: true }
                };
                let plan = match h.rendezvous(snapshot) {
                    Rendezvous::Round(p) => p,
                    Rendezvous::Stop => panic!("stopped with work pending"),
                };
                assert_eq!(plan.len(), 1);
                assert_eq!(plan[0].victim, 0);
                assert_eq!(plan[0].thief, 1);
                // No actual engine here: deposit nothing, just exchange.
                let inbox = h.exchange();
                assert!(inbox.is_empty());
                assert_eq!(h.next_boundary(), SimTime::from_millis(20));
                // Round 1: everyone done and empty — protocol stops.
                let done = LoadSnapshot { depth: 0, backlog_us: 0, done: true };
                assert!(matches!(h.rendezvous(done), Rendezvous::Stop));
                // Detach after stop is a harmless no-op.
                h.detach();
            })
        };
        let ta = run(a, true);
        let tb = run(b, false);
        ta.join().unwrap();
        tb.join().unwrap();
    }

    #[test]
    fn detach_releases_a_waiting_peer() {
        let coord = StealCoordinator::new(2, SimDuration::from_millis(5));
        let mut a = coord.handle(0, Vec::new());
        let b = coord.handle(1, Vec::new());
        let tb = std::thread::spawn(move || {
            let mut b = b;
            // Peer is alone once `a` detaches: all-done with an empty plan
            // stops the protocol rather than waiting for the detached shard.
            matches!(
                b.rendezvous(LoadSnapshot { depth: 0, backlog_us: 0, done: true }),
                Rendezvous::Stop
            )
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        a.detach();
        assert!(tb.join().unwrap(), "peer should observe Stop after detach");
    }

    /// Rounds the stress script keeps every shard busy for.
    const STRESS_ROUNDS: u64 = 5_000;

    /// How a scripted shard leaves the protocol early.
    #[derive(Clone, Copy)]
    enum Leave {
        Detach,
        /// Unwinds out of the run loop: the handle detaches from `Drop`.
        Panic,
    }

    /// Shard `shard`'s scripted load in `round`: idle in most rounds (empty
    /// plans), a backlog worth stealing in about one of eight, done once
    /// the script is over.
    fn scripted(shard: u16, round: u64) -> LoadSnapshot {
        if round >= STRESS_ROUNDS {
            return DETACHED;
        }
        let h = splitmix64(round * 8 + shard as u64);
        if !h.is_multiple_of(8) {
            return snap(0, 0);
        }
        let depth = 2 + (h >> 8) % 4;
        snap(depth, depth * 1_000 * (1 + (h >> 16) % 3))
    }

    fn stolen(id: u64) -> StolenQuery {
        let sample = Sample {
            id,
            difficulty: 0.0,
            shared_noise: 0.0,
            label: Label::Class(0),
            features: Vec::new(),
        };
        let query = Query { id, key: id, sample, arrival: SimTime::ZERO, deadline: SimTime::ZERO };
        StolenQuery { query, score: 0.0, bin: 0 }
    }

    /// One shard thread of the stress run: follows the script until `Stop`
    /// (or its scripted exit), deposits what each plan demands of it — in
    /// descending id order, so the inbox sort has work to do — and checks
    /// that its inbox holds exactly what the plan promised, in `(victim,
    /// id)` order. Returns the plan it saw in every round.
    fn drive(mut handle: StealHandle, leave: Option<(u64, Leave)>) -> Vec<Vec<Transfer>> {
        let me = handle.shard();
        let mut plans = Vec::new();
        for round in 0.. {
            match leave {
                Some((at, Leave::Detach)) if at == round => {
                    handle.detach();
                    break;
                }
                // `resume_unwind` skips the panic hook: no noise on stderr.
                Some((at, Leave::Panic)) if at == round => {
                    std::panic::resume_unwind(Box::new("scripted exit"))
                }
                _ => {}
            }
            let Rendezvous::Round(plan) = handle.rendezvous(scripted(me, round)) else { break };
            let mut expected = Vec::new();
            for t in &plan {
                let ids = (0..t.count as u64).map(|i| {
                    (round << 16) | ((t.victim as u64) << 12) | ((t.thief as u64) << 8) | i
                });
                if t.victim == me {
                    handle.deposit(t, ids.clone().rev().map(stolen).collect());
                }
                if t.thief == me {
                    expected.extend(ids.map(|id| (t.victim, id)));
                }
            }
            let inbox: Vec<(u16, u64)> = handle
                .exchange()
                .iter()
                .map(|(q, lineage)| {
                    assert_eq!(lineage.epoch as u64, round);
                    (lineage.victim, q.query.id)
                })
                .collect();
            assert_eq!(inbox, expected, "shard {me} round {round}");
            plans.push(plan);
        }
        plans
    }

    /// Runs the script on `shards` threads with the given early leavers
    /// (shard 0 always stays). A wedged coordinator fails the test through
    /// the watchdog timeout instead of hanging it.
    fn stress(shards: u16, leavers: &[(u16, u64, Leave)], poll: bool) {
        let coord =
            StealCoordinator::with_wait(shards as usize, SimDuration::from_millis(50), poll);
        let leave_of = |shard: u16| leavers.iter().find(|l| l.0 == shard).map(|l| (l.1, l.2));
        let (tx, rx) = std::sync::mpsc::channel();
        let threads: Vec<_> = (0..shards)
            .map(|shard| {
                let handle = coord.handle(shard, Vec::new());
                let leave = leave_of(shard);
                let tx = tx.clone();
                std::thread::spawn(move || {
                    let run = std::panic::AssertUnwindSafe(|| drive(handle, leave));
                    let _ = tx.send((shard, std::panic::catch_unwind(run)));
                })
            })
            .collect();
        let mut plans: Vec<Option<Vec<Vec<Transfer>>>> = vec![None; shards as usize];
        for _ in 0..shards {
            let (shard, outcome) = rx
                .recv_timeout(std::time::Duration::from_secs(120))
                .expect("coordinator wedged: a shard thread never finished");
            match outcome {
                Ok(seen) => plans[shard as usize] = Some(seen),
                Err(_) if matches!(leave_of(shard), Some((_, Leave::Panic))) => {}
                Err(failure) => std::panic::resume_unwind(failure),
            }
        }
        threads.into_iter().for_each(|t| t.join().expect("outcome already caught"));

        let reference = plans[0].take().expect("shard 0 stays to the end");
        assert_eq!(reference.len() as u64, STRESS_ROUNDS, "Stop exactly when the script ends");
        assert!(reference.iter().any(Vec::is_empty) && !reference.iter().all(Vec::is_empty));
        for (shard, seen) in plans.iter().enumerate().skip(1) {
            let Some(seen) = seen else { continue };
            let stayed = leave_of(shard as u16).map_or(STRESS_ROUNDS, |(at, _)| at);
            assert_eq!(seen.len() as u64, stayed, "shard {shard} left early or late");
            assert_eq!(seen[..], reference[..seen.len()], "shard {shard} saw another plan");
        }
    }

    #[test]
    fn coordinator_survives_a_scripted_stress_run_on_both_wait_paths() {
        for poll in [true, false] {
            stress(2, &[(1, 2_500, Leave::Detach)], poll);
            stress(2, &[(1, 2_501, Leave::Panic)], poll);
            stress(3, &[(1, 1_700, Leave::Detach), (2, 3_401, Leave::Panic)], poll);
            stress(4, &[(3, 1_701, Leave::Panic), (1, 3_400, Leave::Detach)], poll);
        }
    }
}
