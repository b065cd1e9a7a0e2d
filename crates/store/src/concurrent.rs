//! The shared store used by the concurrent reasoner: sharded, locked
//! writers and lock-free epoch readers.
//!
//! The paper's concurrency story (§2.2) is a single
//! `ReentrantReadWriteLock` over the whole triple store. This module keeps
//! the paper's *semantics* but drops the single lock: the store is already
//! vertically partitioned into self-contained per-predicate
//! [`PropertyTable`](crate::PropertyTable)s, so [`ShardedStore`] guards
//! its writers with **two levels of locking**:
//!
//! 1. a global **maintenance gate** (`RwLock<()>`): every write call
//!    ([`ShardedStore::insert_batch`] and friends,
//!    [`ShardedStore::write_shard`]) holds it in *read* mode;
//!    [`ShardedStore::exclusive`] — DRed maintenance runs and
//!    quiescent-store sections, the engine's only deletion path — takes it
//!    in *write* mode, getting the store to itself exactly as the old
//!    global write lock did;
//! 2. a fixed power-of-two array of **shard locks**
//!    (`RwLock<VerticalStore>`), each shard owning the property tables of
//!    the predicates that hash to it. Writers touching disjoint predicate
//!    families lock disjoint shards and run concurrently instead of
//!    serialising on one writer.
//!
//! Readers take neither level: they answer from the published epoch
//! (below).
//!
//! ## Lock-order discipline
//!
//! * The gate is always acquired **before** any shard lock, never while a
//!   shard lock is held.
//! * No thread ever holds more than one shard write lock at a time — the
//!   batched write path visits each touched shard once, in ascending
//!   index order, and releases shard *i* before acquiring shard *j* (a
//!   batch is therefore atomic with respect to maintenance, which
//!   excludes it wholly via the gate, but not with respect to readers of
//!   other shards — exactly the per-shard granularity the fresh-subset
//!   contract needs, since that contract is per triple).
//! * The publication mutex is innermost: it is held only for a pointer
//!   clone or swap, never while acquiring another lock.
//!
//! Writers never wait while holding a shard lock, so no cycle — and
//! therefore no deadlock — is possible.
//!
//! ## Epoch snapshots — the read path
//!
//! The store keeps one **published epoch**: an immutable,
//! generation-stamped [`EpochSnapshot`] holding an `Arc<VerticalStore>`
//! per shard. A write call publishes **once per shard it touches**: it
//! applies the shard's whole share of the batch under the shard's write
//! lock and publishes a fresh epoch before releasing that lock, so
//! publications of a shard serialise and each epoch is a
//! prefix-consistent cut of the store's history (a call's share of a
//! shard appears in it whole, never torn). The clone taken at
//! publication is copy-on-write ([`VerticalStore`]'s tables are
//! `Arc`-shared), so the publication itself costs one `Arc` bump per
//! table of the shard. The copy comes later: the first mutation of a
//! table after a publication deep-copies that whole table. A write call
//! therefore costs one publication per touched shard plus one deep copy
//! of each table it mutates that the last publication shares
//! ([`ShardedStore::cow_pairs_copied`] counts the copied pairs).
//!
//! Readers ([`ShardedStore::snapshot`], and through it
//! [`ShardedStore::matches`] / [`ShardedStore::stats`] /
//! [`ShardedStore::to_sorted_vec`] / [`ShardedStore::contains`]) clone
//! the published `Arc` and answer from the immutable epoch through
//! [`EpochSnapshot::view`] or a scoped [`EpochReader`]: **zero gate or
//! shard locks**, so reads never block writers, shard guards, DRed
//! flushes, or [`ShardedStore::exclusive`] sections — and never observe
//! their intermediate states. Deletions happen only under the gate's
//! write mode and become visible atomically when the new epoch is
//! published; an epoch acquired before a maintenance run keeps answering
//! from the pre-maintenance state (generation monotonicity).

use crate::pattern::TriplePattern;
use crate::vertical::{StoreStats, VerticalStore};
use crate::view::StoreView;
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use slider_model::{NodeId, Triple};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Default number of shards — enough to make collisions between a handful
/// of hot predicate families unlikely, small enough that the per-shard
/// costs (one `Arc` per shard in every published epoch, one lock per shard
/// in an exclusive section's gather) stay cheap.
pub const DEFAULT_SHARDS: usize = 16;

/// The shard index predicate `p` hashes to among `count` shards (a power
/// of two) — shared by the live store and its epochs.
#[inline]
fn shard_index(p: NodeId, count: usize) -> usize {
    // Fibonacci multiply-shift; the high bits mix well for the dense
    // dictionary ids NodeId uses.
    ((p.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & (count - 1)
}

/// A [`VerticalStore`] split into per-predicate shards: writers lock at two
/// levels, readers answer lock-free from the published epoch — see the
/// module docs for the design and the lock-order rules.
///
/// Writes return the subset of triples that were actually new, which is
/// what gets dispatched onward — the duplicate-limitation mechanism. The
/// contract is per triple (and therefore per shard): a triple is reported
/// fresh by exactly one writer, no matter how writes interleave.
pub struct ShardedStore {
    /// Level 1: the maintenance gate. Read = normal operation, write =
    /// exclusive (quiescent) access.
    gate: RwLock<()>,
    /// Level 2: the shards. `shards.len()` is a power of two.
    shards: Box<[RwLock<VerticalStore>]>,
    /// Indexing mode shards are (re)built with.
    object_index: bool,
    /// Total triples, maintained alongside the per-shard mutations so
    /// `len()` needs no locks.
    len: AtomicUsize,
    /// Times the gate was taken in write mode ([`ShardedStore::exclusive`]).
    gate_writes: AtomicU64,
    /// Times a shard write lock was contended (the uncontended fast path
    /// is a `try_write`).
    shard_conflicts: AtomicU64,
    /// The published epoch: the immutable snapshot lock-free readers
    /// answer from. The mutex is held only for the pointer clone/swap —
    /// never across any other lock (order: gate → shard → publish).
    published: Mutex<Arc<EpochSnapshot>>,
    /// Monotone epoch counter; bumped at every publication.
    generation: AtomicU64,
    /// Pairs deep-copied when a write un-shared a table an epoch shared,
    /// drained from the shards at each publication.
    cow_pairs: AtomicU64,
}

impl Default for ShardedStore {
    fn default() -> Self {
        ShardedStore::new()
    }
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("shards", &self.shards.len())
            .field("len", &self.len.load(Ordering::Relaxed))
            .finish()
    }
}

impl ShardedStore {
    /// An empty store with [`DEFAULT_SHARDS`] shards and full indexing.
    pub fn new() -> Self {
        ShardedStore::with_shards(DEFAULT_SHARDS)
    }

    /// An empty store with `shards` shards (rounded up to a power of two,
    /// minimum 1 — `with_shards(1)` degenerates to the paper's single
    /// global readers-writer lock, kept as the baseline for the `ingest`
    /// benchmark).
    pub fn with_shards(shards: usize) -> Self {
        ShardedStore::from_store_sharded(VerticalStore::new(), shards)
    }

    /// Wraps an existing store with [`DEFAULT_SHARDS`] shards, preserving
    /// its indexing mode.
    pub fn from_store(store: VerticalStore) -> Self {
        ShardedStore::from_store_sharded(store, DEFAULT_SHARDS)
    }

    /// Wraps an existing store, distributing its property tables over
    /// `shards` shards (rounded up to a power of two, minimum 1). The
    /// store's indexing mode carries over to all shards.
    pub fn from_store_sharded(store: VerticalStore, shards: usize) -> Self {
        let count = shards.max(1).next_power_of_two();
        let object_index = store.has_object_index();
        let empty = || {
            if object_index {
                VerticalStore::new()
            } else {
                VerticalStore::without_object_index()
            }
        };
        let this = ShardedStore {
            gate: RwLock::new(()),
            shards: (0..count).map(|_| RwLock::new(empty())).collect(),
            object_index,
            len: AtomicUsize::new(0),
            gate_writes: AtomicU64::new(0),
            shard_conflicts: AtomicU64::new(0),
            published: Mutex::new(Arc::new(EpochSnapshot {
                generation: 0,
                shards: (0..count).map(|_| Arc::new(empty())).collect(),
                len: 0,
            })),
            generation: AtomicU64::new(0),
            cow_pairs: AtomicU64::new(0),
        };
        this.scatter(store);
        this
    }

    /// The shard index predicate `p` hashes to.
    #[inline]
    pub fn shard_of(&self, p: NodeId) -> usize {
        shard_index(p, self.shards.len())
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// An empty store in this store's indexing mode.
    fn empty_shard(&self) -> VerticalStore {
        if self.object_index {
            VerticalStore::new()
        } else {
            VerticalStore::without_object_index()
        }
    }

    /// Locks shard `idx` for writing, counting contention: the fast path
    /// is an uncontended `try_write`.
    fn lock_shard(&self, idx: usize) -> RwLockWriteGuard<'_, VerticalStore> {
        match self.shards[idx].try_write() {
            Some(guard) => guard,
            None => {
                self.shard_conflicts.fetch_add(1, Ordering::Relaxed);
                self.shards[idx].write()
            }
        }
    }

    /// Distributes `store`'s tables over the shards (assumes the shards'
    /// current contents are to be replaced — callers hold the gate in
    /// write mode or own `self` exclusively) and refreshes the length
    /// counter.
    fn scatter(&self, mut store: VerticalStore) {
        self.cow_pairs
            .fetch_add(store.take_cow_pairs_copied(), Ordering::Relaxed);
        let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); self.shards.len()];
        for p in store.predicates().collect::<Vec<_>>() {
            groups[self.shard_of(p)].push(p);
        }
        let mut total = 0;
        let mut snaps = Vec::with_capacity(self.shards.len());
        for (idx, preds) in groups.iter().enumerate() {
            let sub = store.split_off(preds);
            total += sub.len();
            // Copy-on-write clone: the epoch shares the tables the live
            // shard starts from; future mutations un-share lazily.
            snaps.push(Arc::new(sub.clone()));
            *self.shards[idx].write() = sub;
        }
        debug_assert!(store.is_empty(), "scatter covered every predicate");
        self.len.store(total, Ordering::Relaxed);
        self.publish_full(snaps);
    }

    /// Publishes a fresh epoch with shard `idx` replaced by a
    /// copy-on-write clone of `shard`, and drains the shard's
    /// copy-on-write count. Callers invoke this **while still holding the
    /// shard's write lock** (or the gate in write mode), so publications
    /// of the same shard serialise in mutation order and every epoch is a
    /// prefix-consistent cut.
    fn publish_shard(&self, idx: usize, shard: &mut VerticalStore) {
        self.cow_pairs
            .fetch_add(shard.take_cow_pairs_copied(), Ordering::Relaxed);
        let mut published = self.published.lock();
        let mut shards = published.shards.to_vec();
        shards[idx] = Arc::new(shard.clone());
        let len: usize = shards.iter().map(|s| s.len()).sum();
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        *published = Arc::new(EpochSnapshot {
            generation,
            shards: shards.into_boxed_slice(),
            len,
        });
    }

    /// Publishes a fresh epoch covering every shard at once (the scatter
    /// paths: construction and the end of an exclusive section, both of
    /// which rebuild all shards under exclusion).
    fn publish_full(&self, shards: Vec<Arc<VerticalStore>>) {
        let len: usize = shards.iter().map(|s| s.len()).sum();
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        *self.published.lock() = Arc::new(EpochSnapshot {
            generation,
            shards: shards.into_boxed_slice(),
            len,
        });
    }

    /// The current published epoch — the lock-free read path. One mutex
    /// lock for the pointer clone; the returned snapshot is immutable and
    /// shared, so it never blocks (and is never blocked by) writers,
    /// shard guards, or maintenance.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.published.lock())
    }

    /// Generation stamp of the most recently published epoch (monotone).
    /// Rises by one per touched shard per write call (if the call changed
    /// that shard), by one per dropped [`ShardWriteGuard`], and by one per
    /// exclusive section.
    pub fn snapshot_generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Pairs deep-copied so far because a write mutated a table that a
    /// published epoch still shared. Each write call copies each table it
    /// mutates at most once, so this grows by the sizes of the tables the
    /// calls touch, not by the number of triples they write.
    pub fn cow_pairs_copied(&self) -> u64 {
        self.cow_pairs.load(Ordering::Relaxed)
    }

    /// Drains every shard into one merged store (callers hold the gate in
    /// write mode, so the shard locks are uncontended).
    fn gather(&self) -> VerticalStore {
        let mut merged = self.empty_shard();
        for shard in self.shards.iter() {
            let mut guard = shard.write();
            let sub = std::mem::replace(&mut *guard, self.empty_shard());
            merged.absorb(sub);
        }
        merged
    }

    /// Inserts a batch; appends the *new* triples to `fresh` (in input
    /// order) and returns how many were new. Holds the gate in read mode
    /// for the whole batch and each touched shard's write lock once, for
    /// that shard's whole share of the batch — at most one shard lock at
    /// a time, one epoch publication per touched shard.
    pub fn insert_batch(&self, triples: &[Triple], fresh: &mut Vec<Triple>) -> usize {
        self.write_batch(triples, fresh, |shard, t| {
            let new = shard.insert(t);
            (new, new)
        })
    }

    /// Inserts a batch as **explicit** (asserted) facts; appends the *new*
    /// triples to `fresh` and returns how many were new. The input manager
    /// uses this path; rule distributors use the plain
    /// [`ShardedStore::insert_batch`], so the explicit flag separates
    /// assertions from conclusions for truth maintenance.
    pub fn insert_batch_explicit(&self, triples: &[Triple], fresh: &mut Vec<Triple>) -> usize {
        self.write_batch(triples, fresh, |shard, t| {
            // Re-asserting a triple already present as *derived* is not
            // fresh, but it does flip the explicit flag — a mutation the
            // epoch must republish or `stats()`/`is_explicit` on the
            // lock-free path would keep serving stale provenance.
            let was_explicit = shard.is_explicit(t);
            let new = shard.insert_explicit(t);
            (new, new || !was_explicit)
        })
    }

    /// The shared insert loop: takes the gate in read mode and applies
    /// `op` per triple. `op` returns `(new, mutated)` — `new` collects the
    /// triple and grows the length counter, `mutated` marks the shard for
    /// epoch republication (a provenance-only flip mutates without a new
    /// triple).
    ///
    /// Each touched shard is visited once, in ascending index order: its
    /// write lock is taken, every triple of the batch hashing there is
    /// applied in input order, one epoch is published if anything
    /// changed, and the lock is released before the next shard's. So a
    /// call publishes at most once per touched shard and copies each
    /// table it mutates at most once. New triples are appended in input
    /// order; the extra memory is one bit per triple plus one per shard.
    fn write_batch(
        &self,
        triples: &[Triple],
        fresh: &mut Vec<Triple>,
        op: impl Fn(&mut VerticalStore, Triple) -> (bool, bool),
    ) -> usize {
        if triples.is_empty() {
            return 0;
        }
        let _gate = self.gate.read();
        let mut touched = vec![false; self.shards.len()];
        for t in triples {
            touched[self.shard_of(t.p)] = true;
        }
        let mut new = vec![0u64; triples.len().div_ceil(64)];
        let mut count = 0;
        for idx in (0..touched.len()).filter(|&idx| touched[idx]) {
            let mut shard = self.lock_shard(idx);
            let mut shard_new = 0;
            let mut dirty = false;
            for (i, &t) in triples.iter().enumerate() {
                if self.shard_of(t.p) != idx {
                    continue;
                }
                let (is_new, mutated) = op(&mut shard, t);
                if is_new {
                    new[i / 64] |= 1 << (i % 64);
                    shard_new += 1;
                }
                dirty |= mutated;
            }
            self.len.fetch_add(shard_new, Ordering::Relaxed);
            if dirty {
                self.publish_shard(idx, &mut shard);
            }
            // Released before the next shard is locked: never two shard
            // write locks at once (see the module docs).
            drop(shard);
            count += shard_new;
        }
        fresh.extend(
            triples
                .iter()
                .enumerate()
                .filter(|&(i, _)| new[i / 64] & (1 << (i % 64)) != 0)
                .map(|(_, &t)| t),
        );
        count
    }

    /// Inserts one triple; returns `true` if new. One gate-read plus one
    /// shard write lock; publishes a fresh epoch before returning, so the
    /// caller (and anything it signals) observes its own write on the
    /// lock-free read path.
    pub fn insert(&self, t: Triple) -> bool {
        let _gate = self.gate.read();
        let idx = self.shard_of(t.p);
        let mut guard = self.lock_shard(idx);
        let inserted = guard.insert(t);
        if inserted {
            self.len.fetch_add(1, Ordering::Relaxed);
            self.publish_shard(idx, &mut guard);
        }
        inserted
    }

    /// True if `t` is present — answered from the published epoch, no
    /// gate or shard lock.
    pub fn contains(&self, t: Triple) -> bool {
        self.snapshot().view().contains(t)
    }

    /// True if `t` is present and explicitly asserted — answered from
    /// the published epoch, no gate or shard lock.
    pub fn is_explicit(&self, t: Triple) -> bool {
        self.snapshot().view().is_explicit(t)
    }

    /// Acquires the **maintenance gate in write mode** and returns the
    /// whole store, merged, for compound mutation. This is the only way to
    /// get `&mut VerticalStore` access: the DRed maintenance subsystem
    /// holds it across a whole run so overdeletion and rederivation are
    /// atomic with respect to every reader and writer (they all hold the
    /// gate in read mode). The merge and the re-scatter on drop move
    /// property tables wholesale — O(#predicates), no triple is copied.
    pub fn exclusive(&self) -> ExclusiveStore<'_> {
        let gate = self.gate.write();
        self.gate_writes.fetch_add(1, Ordering::Relaxed);
        let merged = self.gather();
        ExclusiveStore {
            owner: self,
            _gate: gate,
            merged,
        }
    }

    /// Locks the single shard owning predicate `p` for writing (gate held
    /// in read mode), for callers that want to pin or batch mutations on
    /// one predicate family. Writes to *other* shards proceed concurrently
    /// while this guard is held, and so do all reads (they answer from the
    /// published epoch); writes to the same shard and
    /// [`ShardedStore::exclusive`] block until it is released.
    pub fn write_shard(&self, p: NodeId) -> ShardWriteGuard<'_> {
        let gate = self.gate.read();
        let idx = self.shard_of(p);
        let guard = self.lock_shard(idx);
        let len_at_acquire = guard.len();
        ShardWriteGuard {
            owner: self,
            _gate: gate,
            idx,
            len_at_acquire,
            guard,
        }
    }

    /// Total number of triples (lock-free).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Times the maintenance gate was acquired in write mode — one per
    /// [`ShardedStore::exclusive`] section (DRed runs and quiescent-store
    /// sections).
    pub fn gate_write_acquisitions(&self) -> u64 {
        self.gate_writes.load(Ordering::Relaxed)
    }

    /// Times a shard write lock was contended (another writer or a
    /// [`ShardWriteGuard`] held the shard when a write arrived).
    pub fn shard_write_conflicts(&self) -> u64 {
        self.shard_conflicts.load(Ordering::Relaxed)
    }

    /// Store statistics, merged across the published epoch's shards — no
    /// gate or shard lock.
    pub fn stats(&self) -> StoreStats {
        self.snapshot().stats()
    }

    /// Sorted snapshot of all triples (deterministic; for tests/reports).
    /// Answered from the published epoch — no gate or shard lock.
    pub fn to_sorted_vec(&self) -> Vec<Triple> {
        self.snapshot().view().to_sorted_vec()
    }

    /// All triples matching `pattern`, answered from the published epoch
    /// — one consistent cut, no gate or shard lock.
    pub fn matches(&self, pattern: TriplePattern) -> Vec<Triple> {
        self.snapshot().view().matches(pattern)
    }

    /// Consumes the wrapper, merging the shards back into one store.
    pub fn into_inner(self) -> VerticalStore {
        let mut merged = self.empty_shard();
        for shard in self.shards.into_vec() {
            merged.absorb(shard.into_inner());
        }
        merged
    }
}

/// Exclusive, merged access to a [`ShardedStore`] (the maintenance gate
/// held in write mode). Dereferences to the whole store as one
/// [`VerticalStore`]; dropping the guard re-scatters the tables to their
/// shards and refreshes the length counter.
pub struct ExclusiveStore<'a> {
    owner: &'a ShardedStore,
    _gate: RwLockWriteGuard<'a, ()>,
    merged: VerticalStore,
}

impl std::ops::Deref for ExclusiveStore<'_> {
    type Target = VerticalStore;
    fn deref(&self) -> &VerticalStore {
        &self.merged
    }
}

impl std::ops::DerefMut for ExclusiveStore<'_> {
    fn deref_mut(&mut self) -> &mut VerticalStore {
        &mut self.merged
    }
}

impl Drop for ExclusiveStore<'_> {
    fn drop(&mut self) {
        // The gate (a field, dropped after this body) is still held while
        // the tables scatter back, so no reader can observe a half-filled
        // shard array.
        let merged = std::mem::take(&mut self.merged);
        self.owner.scatter(merged);
    }
}

impl std::fmt::Debug for ExclusiveStore<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExclusiveStore")
            .field("len", &self.merged.len())
            .finish()
    }
}

/// Write access to the single shard owning one predicate family (gate held
/// in read mode) — see [`ShardedStore::write_shard`]. On drop, the
/// store-wide length counter is adjusted by however much the shard grew or
/// shrank through this guard, and a fresh epoch is published — mutations
/// made through the guard become visible to lock-free readers atomically
/// at release, never mid-edit.
pub struct ShardWriteGuard<'a> {
    owner: &'a ShardedStore,
    _gate: RwLockReadGuard<'a, ()>,
    idx: usize,
    len_at_acquire: usize,
    guard: RwLockWriteGuard<'a, VerticalStore>,
}

impl std::ops::Deref for ShardWriteGuard<'_> {
    type Target = VerticalStore;
    fn deref(&self) -> &VerticalStore {
        &self.guard
    }
}

impl std::ops::DerefMut for ShardWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut VerticalStore {
        &mut self.guard
    }
}

impl Drop for ShardWriteGuard<'_> {
    fn drop(&mut self) {
        let now = self.guard.len();
        if now >= self.len_at_acquire {
            self.owner
                .len
                .fetch_add(now - self.len_at_acquire, Ordering::Relaxed);
        } else {
            self.owner
                .len
                .fetch_sub(self.len_at_acquire - now, Ordering::Relaxed);
        }
        // Published while the shard write lock (a field, dropped after
        // this body) is still held — release-time atomic visibility.
        self.owner.publish_shard(self.idx, &mut self.guard);
    }
}

impl std::fmt::Debug for ShardWriteGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardWriteGuard")
            .field("len", &self.guard.len())
            .finish()
    }
}

/// An immutable, generation-stamped epoch of the whole store — the
/// lock-free read path ([`ShardedStore::snapshot`]).
///
/// A snapshot holds one `Arc<VerticalStore>` per shard, shared
/// copy-on-write with the live shards at publication time. It is never
/// mutated after publication: queries against it take **no locks at
/// all**, complete in bounded time regardless of concurrent writers,
/// shard guards, or maintenance runs, and always describe one
/// prefix-consistent cut of the store's history. A snapshot acquired
/// before a maintenance flush keeps answering from the pre-flush state
/// even after the flush retracts triples (generation monotonicity).
/// Queries go through [`EpochSnapshot::view`], or through a scoped
/// [`EpochSnapshot::reader`] for a join with a declared read set.
pub struct EpochSnapshot {
    /// Monotone publication stamp (see
    /// [`ShardedStore::snapshot_generation`]).
    generation: u64,
    /// One copy-on-write sub-store per shard; indexed by the same
    /// Fibonacci hash as the live store.
    shards: Box<[Arc<VerticalStore>]>,
    /// Total triples across the shards, fixed at publication.
    len: usize,
}

impl EpochSnapshot {
    /// The publication stamp: strictly increases with every published
    /// epoch of the owning store.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total number of triples in this epoch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the epoch holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A [`StoreView`] over the whole epoch — what queries and rule joins
    /// without a declared read set run against.
    pub fn view(&self) -> StoreView<'_> {
        self.reader(None).view()
    }

    /// A reader scoped to a declared read set (`Rule::read_predicates` in
    /// `slider-rules`). The scope is a **contract**, checked by exact
    /// membership in release builds too: querying a predicate outside
    /// `read_set` panics, and so do the full-walk accessors (`iter`,
    /// `len`, `predicates`, unbound-predicate `matches`). `None` scopes
    /// nothing (= [`EpochSnapshot::view`]).
    pub fn reader<'a>(&'a self, read_set: Option<&'a [NodeId]>) -> EpochReader<'a> {
        EpochReader {
            snapshot: self,
            read_set,
        }
    }

    /// Store statistics merged across the epoch's shards.
    pub fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for shard in self.shards.iter() {
            let s = shard.stats();
            total.triples += s.triples;
            total.explicit += s.explicit;
            total.derived += s.derived;
            total.predicates += s.predicates;
            total.largest_partition = total.largest_partition.max(s.largest_partition);
        }
        total
    }
}

impl std::fmt::Debug for EpochSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochSnapshot")
            .field("generation", &self.generation)
            .field("shards", &self.shards.len())
            .field("len", &self.len)
            .finish()
    }
}

/// An [`EpochSnapshot`] scoped to an optional declared read set
/// ([`EpochSnapshot::reader`]). Queries outside the declared predicates
/// panic by exact membership, preserving the loud-failure contract of
/// `Rule::read_predicates`; since the epoch is immutable, the scope costs
/// nothing at construction.
#[derive(Debug, Clone, Copy)]
pub struct EpochReader<'a> {
    snapshot: &'a EpochSnapshot,
    read_set: Option<&'a [NodeId]>,
}

impl<'a> EpochReader<'a> {
    /// A [`StoreView`] over this reader — what rule joins run against.
    pub fn view(&self) -> StoreView<'a> {
        StoreView::Epoch(*self)
    }

    /// The shard sub-store owning predicate `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the declared read set — checked by exact
    /// membership, not by shard, so a `Rule::read_predicates` declaration
    /// missing a predicate its join touches fails deterministically, no
    /// matter which shard the stray predicate hashes to.
    #[inline]
    pub(crate) fn store_for(&self, p: NodeId) -> &'a VerticalStore {
        if let Some(set) = self.read_set {
            assert!(
                set.contains(&p),
                "predicate {p:?} is outside this snapshot's declared read set"
            );
        }
        &self.snapshot.shards[shard_index(p, self.snapshot.shards.len())]
    }

    /// Every shard sub-store, for the full-walk accessors.
    ///
    /// # Panics
    ///
    /// Panics if the reader is scoped to a read set.
    pub(crate) fn shards(&self) -> &'a [Arc<VerticalStore>] {
        assert!(
            self.read_set.is_none(),
            "full-store walk on a partial snapshot — the rule's declared \
             read set does not license iter()/len()/predicates()/unbound \
             matches()"
        );
        &self.snapshot.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::new(NodeId(s), NodeId(p), NodeId(o))
    }

    #[test]
    fn shard_counts_round_up_to_powers_of_two() {
        assert_eq!(ShardedStore::with_shards(0).shard_count(), 1);
        assert_eq!(ShardedStore::with_shards(1).shard_count(), 1);
        assert_eq!(ShardedStore::with_shards(3).shard_count(), 4);
        assert_eq!(ShardedStore::with_shards(16).shard_count(), 16);
        assert_eq!(ShardedStore::new().shard_count(), DEFAULT_SHARDS);
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let st = ShardedStore::with_shards(8);
        for p in 0..1000 {
            let idx = st.shard_of(NodeId(p));
            assert!(idx < 8);
            assert_eq!(idx, st.shard_of(NodeId(p)));
        }
        // The hash actually spreads predicates over several shards.
        let distinct: std::collections::HashSet<usize> =
            (0..1000).map(|p| st.shard_of(NodeId(p))).collect();
        assert!(distinct.len() > 1, "all predicates in one shard");
    }

    #[test]
    fn batch_insert_dedups() {
        let st = ShardedStore::new();
        let mut fresh = Vec::new();
        assert_eq!(st.insert_batch(&[t(1, 2, 3), t(1, 2, 3)], &mut fresh), 1);
        assert_eq!(fresh, vec![t(1, 2, 3)]);
        fresh.clear();
        assert_eq!(st.insert_batch(&[t(1, 2, 3)], &mut fresh), 0);
        assert!(fresh.is_empty());
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn empty_batch_short_circuits() {
        let st = ShardedStore::new();
        let mut fresh = Vec::new();
        assert_eq!(st.insert_batch(&[], &mut fresh), 0);
    }

    #[test]
    fn cross_shard_batch_preserves_input_order() {
        let st = ShardedStore::with_shards(8);
        // Predicates 1..=6 spread over several shards; fresh order must
        // still follow input order.
        let batch: Vec<Triple> = (1..=6).map(|p| t(p, p, p)).collect();
        let mut fresh = Vec::new();
        assert_eq!(st.insert_batch(&batch, &mut fresh), 6);
        assert_eq!(fresh, batch);
        assert_eq!(st.len(), 6);
    }

    /// `k` predicates that hash to `k` distinct shards of `st`.
    fn preds_in_distinct_shards(st: &ShardedStore, k: usize) -> Vec<u64> {
        let mut seen = std::collections::HashSet::new();
        let preds: Vec<u64> = (1..1000)
            .filter(|&p| seen.insert(st.shard_of(NodeId(p))))
            .take(k)
            .collect();
        assert_eq!(preds.len(), k, "not enough shards for {k} predicates");
        preds
    }

    /// A batch whose predicates alternate across `k` shards publishes one
    /// epoch per touched shard, not one per shard switch.
    #[test]
    fn alternating_batch_publishes_once_per_touched_shard() {
        let st = ShardedStore::with_shards(8);
        let k = 4;
        let preds = preds_in_distinct_shards(&st, k);
        let batch: Vec<Triple> = (0..40u64).map(|i| t(i, preds[i as usize % k], i)).collect();
        let before = st.snapshot_generation();
        let mut fresh = Vec::new();
        assert_eq!(st.insert_batch_explicit(&batch, &mut fresh), 40);
        assert_eq!(st.snapshot_generation() - before, k as u64);
        assert_eq!(fresh, batch, "hits keep input order across shards");
        assert_eq!(st.snapshot().len(), 40);
    }

    /// Repeats interleaved with other shards' triples are reported fresh
    /// once, at their first position.
    #[test]
    fn cross_shard_duplicates_are_fresh_once_at_first_position() {
        let st = ShardedStore::with_shards(8);
        let preds = preds_in_distinct_shards(&st, 2);
        let (a, b, c) = (t(1, preds[0], 1), t(2, preds[1], 2), t(3, preds[0], 3));
        let mut fresh = Vec::new();
        assert_eq!(st.insert_batch(&[b, a, b, c, a, b], &mut fresh), 3);
        assert_eq!(fresh, vec![b, a, c]);
        assert_eq!(st.len(), 3);
    }

    /// A call that changes nothing publishes nothing.
    #[test]
    fn unchanged_batch_publishes_nothing() {
        let st = ShardedStore::with_shards(8);
        let preds = preds_in_distinct_shards(&st, 3);
        let batch: Vec<Triple> = preds.iter().map(|&p| t(1, p, 2)).collect();
        let mut fresh = Vec::new();
        st.insert_batch_explicit(&batch, &mut fresh);
        let settled = st.snapshot_generation();
        fresh.clear();
        assert_eq!(st.insert_batch_explicit(&batch, &mut fresh), 0);
        assert_eq!(st.insert_batch(&batch, &mut fresh), 0);
        assert!(fresh.is_empty());
        assert_eq!(st.snapshot_generation(), settled);
    }

    /// After a publication, one call inserting n triples into one table
    /// copies that table once — its prior length — not n times.
    #[test]
    fn one_call_copies_a_shared_table_once() {
        let st = ShardedStore::with_shards(4);
        let run = |r: std::ops::Range<u64>| r.map(|i| t(i, 7, i)).collect::<Vec<_>>();
        let mut fresh = Vec::new();
        st.insert_batch(&run(0..100), &mut fresh);
        assert_eq!(st.cow_pairs_copied(), 0, "a new table is not shared");
        st.insert_batch(&run(100..150), &mut fresh);
        assert_eq!(st.cow_pairs_copied(), 100);
        st.insert(t(500, 7, 500));
        assert_eq!(st.cow_pairs_copied(), 250, "each call copies anew");
    }

    /// The counter survives an exclusive section's gather/scatter, and
    /// counts the copies made inside it.
    #[test]
    fn cow_count_survives_exclusive_sections() {
        let st = ShardedStore::with_shards(4);
        let mut fresh = Vec::new();
        st.insert_batch(&(0..10).map(|i| t(i, 7, i)).collect::<Vec<_>>(), &mut fresh);
        st.insert(t(10, 7, 10));
        assert_eq!(st.cow_pairs_copied(), 10);
        {
            let mut guard = st.exclusive();
            guard.remove(t(0, 7, 0));
        }
        assert_eq!(st.cow_pairs_copied(), 21, "exclusive copy counted");
        st.insert(t(11, 7, 11));
        assert_eq!(st.cow_pairs_copied(), 31);
    }

    #[test]
    fn explicit_insert_and_remove() {
        let st = ShardedStore::new();
        let mut fresh = Vec::new();
        assert_eq!(st.insert_batch_explicit(&[t(1, 2, 3)], &mut fresh), 1);
        assert!(st.is_explicit(t(1, 2, 3)));
        st.insert(t(4, 2, 3)); // derived
        assert!(!st.is_explicit(t(4, 2, 3)));
        {
            let mut guard = st.exclusive();
            let mut removed = Vec::new();
            assert_eq!(
                guard.remove_batch(&[t(1, 2, 3), t(9, 9, 9)], &mut removed),
                1
            );
            assert_eq!(removed, vec![t(1, 2, 3)]);
            assert!(guard.remove(t(4, 2, 3)));
            assert!(!guard.remove(t(4, 2, 3)));
        }
        assert!(st.is_empty());
        assert!(!st.contains(t(1, 2, 3)));
        assert!(st.snapshot().is_empty());
    }

    #[test]
    fn exclusive_guard_compound_mutation() {
        let st = ShardedStore::new();
        st.insert(t(1, 2, 3));
        {
            let mut guard = st.exclusive();
            guard.remove(t(1, 2, 3));
            guard.insert_explicit(t(7, 8, 9));
        }
        assert_eq!(st.len(), 1);
        assert!(st.is_explicit(t(7, 8, 9)));
        assert!(!st.contains(t(1, 2, 3)));
        assert_eq!(st.gate_write_acquisitions(), 1);
        // Stats reflect the re-scattered state.
        let stats = st.stats();
        assert_eq!(stats.triples, 1);
        assert_eq!(stats.explicit, 1);
    }

    #[test]
    fn read_snapshot_queries() {
        let st = ShardedStore::new();
        st.insert(t(1, 10, 2));
        st.insert(t(1, 10, 3));
        st.insert(t(5, 20, 6));
        let snap = st.snapshot();
        let view = snap.view();
        assert_eq!(view.objects_with(NodeId(10), NodeId(1)).count(), 2);
        assert_eq!(view.subjects_with(NodeId(20), NodeId(6)).count(), 1);
        assert_eq!(view.pairs(NodeId(10)).count(), 2);
        assert_eq!(view.count_with_p(NodeId(10)), 2);
        assert_eq!(view.len(), 3);
        assert_eq!(snap.len(), 3);
        assert!(!snap.is_empty());
        assert!(view.contains(t(5, 20, 6)));
        assert_eq!(view.iter().count(), 3);
        assert_eq!(
            view.matches(TriplePattern::new(None, Some(NodeId(10)), None))
                .len(),
            2
        );
    }

    /// The acceptance pin for the two-level design: while one shard's
    /// write lock is held, a write to a *different* shard completes, and a
    /// write to the *same* shard blocks until release.
    #[test]
    fn disjoint_shard_writes_proceed_while_one_shard_is_locked() {
        let st = Arc::new(ShardedStore::with_shards(8));
        let p1 = NodeId(1);
        let p2 = (2..200)
            .map(NodeId)
            .find(|&p| st.shard_of(p) != st.shard_of(p1))
            .expect("some predicate hashes to another shard");
        let p_same = (2..200)
            .map(NodeId)
            .find(|&p| st.shard_of(p) == st.shard_of(p1) && p != p1)
            .expect("some predicate shares p1's shard");

        let guard = st.write_shard(p1);

        // Disjoint shard: completes while the lock is held.
        let st2 = Arc::clone(&st);
        let disjoint =
            std::thread::spawn(move || st2.insert(Triple::new(NodeId(9), p2, NodeId(9))));
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            let _ = tx.send(disjoint.join().unwrap());
        });
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(10)),
            Ok(true),
            "write to a disjoint shard serialised on the held shard lock"
        );
        waiter.join().unwrap();

        // Same shard: blocks until the guard drops.
        let st3 = Arc::clone(&st);
        let done = Arc::new(AtomicBool::new(false));
        let done2 = Arc::clone(&done);
        let same = std::thread::spawn(move || {
            st3.insert(Triple::new(NodeId(9), p_same, NodeId(9)));
            done2.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !done.load(Ordering::SeqCst),
            "write to the locked shard did not block"
        );
        drop(guard);
        same.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
        assert_eq!(st.len(), 2);
        assert!(st.shard_write_conflicts() >= 1, "the blocked write counted");
    }

    #[test]
    fn shard_write_guard_mutations_keep_len_in_sync() {
        let st = ShardedStore::with_shards(4);
        st.insert(t(1, 7, 1));
        {
            let mut guard = st.write_shard(NodeId(7));
            guard.insert(Triple::new(NodeId(2), NodeId(7), NodeId(2)));
            guard.insert(Triple::new(NodeId(3), NodeId(7), NodeId(3)));
            guard.remove(t(1, 7, 1));
        }
        assert_eq!(st.len(), 2);
        {
            let mut guard = st.write_shard(NodeId(7));
            guard.remove(Triple::new(NodeId(2), NodeId(7), NodeId(2)));
            guard.remove(Triple::new(NodeId(3), NodeId(7), NodeId(3)));
        }
        assert_eq!(st.len(), 0);
        assert!(st.is_empty());
    }

    #[test]
    fn concurrent_writers_never_lose_or_duplicate() {
        let st = Arc::new(ShardedStore::new());
        let threads = 8;
        let per_thread = 1_000;
        let mut handles = Vec::new();
        for tid in 0..threads {
            let st = Arc::clone(&st);
            handles.push(std::thread::spawn(move || {
                let mut fresh = Vec::new();
                let mut new_count = 0;
                for i in 0..per_thread {
                    // Half the keys collide across threads; predicates vary
                    // so the writes spread over shards.
                    let key = if i % 2 == 0 { i } else { i * 1_000 + tid };
                    new_count += st.insert_batch(&[t(key as u64, (i % 7) as u64, 1)], &mut fresh);
                }
                new_count
            }));
        }
        let total_new: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        // Every insert that reported "new" corresponds to exactly one stored
        // triple, regardless of interleaving.
        assert_eq!(total_new, st.len());
        assert_eq!(st.len(), st.to_sorted_vec().len());
    }

    #[test]
    fn readers_run_during_reasoning_shape() {
        // Simulates the rule-instance pattern: grab a snapshot, many
        // lookups.
        let st = Arc::new(ShardedStore::new());
        for i in 0..100 {
            st.insert(t(i, 7, i + 1));
        }
        let mut handles = Vec::new();
        for _ in 0..4 {
            let st = Arc::clone(&st);
            handles.push(std::thread::spawn(move || {
                let snap = st.snapshot();
                let view = snap.view();
                (0..100)
                    .map(|i| view.objects_with(NodeId(7), NodeId(i)).count())
                    .sum::<usize>()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 100);
        }
    }

    #[test]
    fn into_inner_roundtrip() {
        let st = ShardedStore::new();
        st.insert(t(1, 2, 3));
        st.insert(t(4, 5, 6));
        let inner = st.into_inner();
        assert!(inner.contains(t(1, 2, 3)));
        assert_eq!(inner.len(), 2);
        let st2 = ShardedStore::from_store_sharded(inner, 4);
        assert_eq!(st2.len(), 2);
        assert!(st2.contains(t(4, 5, 6)));
    }

    #[test]
    fn from_store_preserves_indexing_mode() {
        let mut plain = VerticalStore::without_object_index();
        plain.insert(t(1, 10, 2));
        let st = ShardedStore::from_store(plain);
        // Subjects query still answers via the scan path.
        assert_eq!(
            st.snapshot()
                .view()
                .subjects_with(NodeId(10), NodeId(2))
                .collect::<Vec<_>>(),
            vec![NodeId(1)]
        );
        // Exclusive round-trip keeps the mode too.
        {
            let guard = st.exclusive();
            assert!(!guard.has_object_index());
        }
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn single_shard_degenerates_to_global_lock() {
        let st = ShardedStore::with_shards(1);
        assert_eq!(st.shard_count(), 1);
        for p in 0..50 {
            assert_eq!(st.shard_of(NodeId(p)), 0);
        }
        let mut fresh = Vec::new();
        st.insert_batch(&(0..50).map(|i| t(i, i, i)).collect::<Vec<_>>(), &mut fresh);
        assert_eq!(st.len(), 50);
        assert_eq!(st.stats().triples, 50);
    }

    /// The acceptance pin for the lock-free read path: with a shard's
    /// write lock held **on this very thread** (a reader that took the
    /// shard's read lock would self-deadlock), every query API answers.
    #[test]
    fn reads_complete_while_a_shard_write_lock_is_held() {
        let st = ShardedStore::with_shards(8);
        st.insert(t(1, 7, 2));
        let guard = st.write_shard(NodeId(7));
        assert!(st.contains(t(1, 7, 2)));
        assert!(!st.is_explicit(t(1, 7, 2)));
        assert_eq!(st.stats().triples, 1);
        assert_eq!(st.to_sorted_vec(), vec![t(1, 7, 2)]);
        assert_eq!(
            st.matches(TriplePattern::new(None, Some(NodeId(7)), None)),
            vec![t(1, 7, 2)]
        );
        let snap = st.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.view().iter().count(), 1);
        drop(guard);
    }

    /// Reads also answer while an exclusive (gate-write) section is live
    /// on the same thread, and they see the pre-exclusive epoch; the
    /// compound mutation becomes visible atomically at release.
    #[test]
    fn reads_see_the_pre_exclusive_epoch_until_release() {
        let st = ShardedStore::with_shards(4);
        st.insert(t(1, 7, 2));
        {
            let mut guard = st.exclusive();
            guard.remove(t(1, 7, 2));
            guard.insert(t(9, 7, 9));
            assert!(st.contains(t(1, 7, 2)), "pre-exclusive epoch answers");
            assert!(!st.contains(t(9, 7, 9)), "mid-section state invisible");
        }
        assert!(!st.contains(t(1, 7, 2)));
        assert!(st.contains(t(9, 7, 9)));
    }

    /// Epochs are immutable and generations strictly increase: a held
    /// snapshot keeps answering exactly as acquired across later inserts
    /// and removals.
    #[test]
    fn epoch_snapshots_are_immutable_and_generations_monotone() {
        let st = ShardedStore::with_shards(4);
        st.insert(t(1, 7, 2));
        let before = st.snapshot();
        let g0 = before.generation();
        st.insert(t(3, 7, 4));
        st.exclusive().remove(t(1, 7, 2));
        let after = st.snapshot();
        assert!(after.generation() > g0, "publication bumps the stamp");
        assert_eq!(st.snapshot_generation(), after.generation());
        assert!(before.view().contains(t(1, 7, 2)), "old epoch untouched");
        assert!(!before.view().contains(t(3, 7, 4)));
        assert_eq!(before.len(), 1);
        assert!(!after.view().contains(t(1, 7, 2)));
        assert!(after.view().contains(t(3, 7, 4)));
        assert_eq!(after.len(), 1);
    }

    /// Mutations made through a `ShardWriteGuard` are invisible to the
    /// lock-free read path until the guard drops, then appear atomically.
    #[test]
    fn shard_guard_mutations_publish_on_release() {
        let st = ShardedStore::with_shards(4);
        {
            let mut guard = st.write_shard(NodeId(7));
            guard.insert(t(1, 7, 2));
            guard.insert(t(3, 7, 4));
            assert!(!st.contains(t(1, 7, 2)), "unpublished write invisible");
            assert_eq!(st.stats().triples, 0);
        }
        assert!(st.contains(t(1, 7, 2)));
        assert!(st.contains(t(3, 7, 4)));
        assert_eq!(st.stats().triples, 2);
    }

    /// Re-asserting a triple already present as *derived* changes only its
    /// provenance — no fresh triple — but the flip must still republish
    /// the epoch, or the lock-free `stats()`/`is_explicit` would keep
    /// serving the stale flag forever.
    #[test]
    fn explicit_reassertion_of_a_derived_triple_republishes_the_epoch() {
        let st = ShardedStore::with_shards(4);
        let mut fresh = Vec::new();
        st.insert_batch(&[t(1, 7, 2)], &mut fresh); // derived provenance
        assert!(!st.is_explicit(t(1, 7, 2)));
        assert_eq!(st.stats().explicit, 0);
        let before = st.snapshot_generation();

        fresh.clear();
        assert_eq!(st.insert_batch_explicit(&[t(1, 7, 2)], &mut fresh), 0);
        assert!(fresh.is_empty(), "provenance flip is not a fresh triple");
        assert!(st.is_explicit(t(1, 7, 2)), "flip visible lock-free");
        assert_eq!(st.stats().explicit, 1);
        assert_eq!(st.stats().triples, 1);
        assert!(st.snapshot_generation() > before, "flip published an epoch");

        // Re-asserting an already-explicit triple mutates nothing and
        // publishes nothing.
        let settled = st.snapshot_generation();
        fresh.clear();
        assert_eq!(st.insert_batch_explicit(&[t(1, 7, 2)], &mut fresh), 0);
        assert_eq!(st.snapshot_generation(), settled);
    }

    /// The scoped epoch reader preserves the exact-membership read-set
    /// contract: an undeclared predicate panics even when it hashes to
    /// the same shard as a declared one (a shard-level check would let it
    /// slip through and make the loud-failure guarantee depend on the
    /// shard count).
    #[test]
    #[should_panic(expected = "outside this snapshot's declared read set")]
    fn epoch_reader_panics_on_undeclared_predicate() {
        let st = ShardedStore::with_shards(1); // every predicate shares shard 0
        st.insert(t(1, 7, 2));
        let snap = st.snapshot();
        let reader = snap.reader(Some(&[NodeId(7)]));
        let _ = reader.view().objects_with(NodeId(8), NodeId(1)).count();
    }

    /// The scoped epoch reader answers declared-predicate queries from
    /// the epoch; the unscoped reader also walks the whole store.
    #[test]
    fn epoch_reader_scoped_queries_answer() {
        let st = ShardedStore::with_shards(8);
        st.insert(t(1, 7, 2));
        st.insert(t(5, 20, 6));
        let snap = st.snapshot();
        let reader = snap.reader(Some(&[NodeId(7)]));
        assert_eq!(reader.view().objects_with(NodeId(7), NodeId(1)).count(), 1);
        let unscoped = snap.reader(None);
        assert_eq!(unscoped.view().len(), 2);
    }

    /// A scoped reader refuses full-store walks: its read set licenses
    /// only the declared predicates, not `len`/`iter`/`predicates`.
    #[test]
    #[should_panic(expected = "full-store walk on a partial snapshot")]
    fn epoch_reader_refuses_full_store_walks() {
        let st = ShardedStore::with_shards(8);
        st.insert(t(1, 7, 2));
        let snap = st.snapshot();
        let _ = snap.reader(Some(&[NodeId(7)])).view().len();
    }

    #[test]
    fn stats_merge_across_shards() {
        let st = ShardedStore::with_shards(8);
        let mut fresh = Vec::new();
        st.insert_batch_explicit(&[t(1, 10, 2), t(1, 20, 2)], &mut fresh);
        st.insert(t(3, 10, 4));
        let stats = st.stats();
        assert_eq!(stats.triples, 3);
        assert_eq!(stats.explicit, 2);
        assert_eq!(stats.derived, 1);
        assert_eq!(stats.predicates, 2);
        assert_eq!(stats.largest_partition, 2);
    }
}
