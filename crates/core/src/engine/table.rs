//! The table of open queries, shared by both engines.

use std::ops::{Deref, DerefMut};

/// Per-query state an [`OpenTable`] can hold.
pub(super) trait Keyed {
    /// The query's engine-local id.
    fn id(&self) -> u64;
}

/// The open queries of one engine, in ascending id: arrivals append, an
/// adoption (or an arrival after one) inserts by binary search, lookups
/// search. Ascending id is the order plans, sweeps, drains and the trace go
/// by, so nothing that walks the table has to sort it first. Entries are
/// read and edited in place through the slice it derefs to.
#[derive(Debug)]
pub(super) struct OpenTable<S>(Vec<S>);

impl<S: Keyed> OpenTable<S> {
    pub(super) fn new() -> Self {
        Self(Vec::new())
    }

    /// Position of query `id` in the table.
    pub(super) fn position(&self, id: u64) -> Option<usize> {
        self.0.binary_search_by_key(&id, Keyed::id).ok()
    }

    /// Adds a query at its place in id order (the end, for an arrival with
    /// no adopted query open).
    pub(super) fn admit(&mut self, state: S) {
        let pos = self.0.partition_point(|s| s.id() < state.id());
        debug_assert!(self.0.get(pos).is_none_or(|s| s.id() != state.id()), "query admitted twice");
        self.0.insert(pos, state);
    }

    /// Takes the entry at `pos` off the table.
    pub(super) fn remove(&mut self, pos: usize) -> S {
        self.0.remove(pos)
    }

    /// Keeps the entries `keep` approves, visiting all in id order.
    pub(super) fn retain(&mut self, keep: impl FnMut(&S) -> bool) {
        self.0.retain(keep);
    }
}

impl<S> Deref for OpenTable<S> {
    type Target = [S];

    fn deref(&self) -> &[S] {
        &self.0
    }
}

impl<S> DerefMut for OpenTable<S> {
    fn deref_mut(&mut self) -> &mut [S] {
        &mut self.0
    }
}
