//! The vertically partitioned triple store (paper §2.2).
//!
//! > "In order to achieve high performance Slider uses a vertical
//! > partitioning approach … where triples are first indexed by predicates,
//! > later by subjects and finally by objects."
//!
//! [`VerticalStore`] keeps one [`PropertyTable`] per predicate; each table
//! indexes its (subject, object) pairs both ways. Every pattern the ρdf and
//! RDFS rules need resolves to one hash lookup plus an iteration:
//!
//! * `(p, s, ?)` → `objects_with`
//! * `(p, ?, o)` → `subjects_with`
//! * `(p, ?, ?)` → `pairs`
//! * `(?, ?, ?)` → `iter` (full walk, needed by the universal-input rules)
//!
//! The hash-set leaves make insertion idempotent, which is the paper's
//! "duplicate management in triple store": `insert` reports whether the
//! triple was new, and the distributor uses exactly that signal to stop
//! duplicates from re-entering the rule pipeline.
//!
//! The store also supports **retraction**: `remove`/`remove_batch` delete
//! triples with both indexes kept in lock-step, and a per-triple provenance
//! flag distinguishes **explicit** (asserted via the `*_explicit` insertion
//! paths) from **derived** triples. The reasoner's DRed maintenance
//! subsystem builds on exactly these two primitives — see
//! `slider-core`'s `maintenance` module.
//!
//! [`ShardedStore`] shares the store across threads. Writers use
//! **two-level locking** (the paper uses a single
//! `ReentrantReadWriteLock`; we keep its semantics but not its
//! bottleneck): a global *maintenance gate* held in read mode by every
//! write call and in write mode only by exclusive sections
//! ([`ShardedStore::exclusive`] — DRed runs, quiescent-store sections, and
//! the only way to delete), plus per-predicate-shard write locks so
//! writers touching disjoint predicate families run concurrently. See the
//! `concurrent` module docs for the lock-order discipline.
//!
//! The **read path is lock-free**: every write-release publishes an
//! immutable, generation-stamped [`EpochSnapshot`] (copy-on-write over
//! the shard tables), and queries and rule joins answer from the
//! published epoch without taking the gate or any shard lock. Readers
//! join against a [`StoreView`] — either a plain store borrowed whole or
//! an [`EpochReader`] over an epoch — so the same rule code serves both
//! worlds. A rule join with a declared read set gets a scoped
//! [`EpochReader`], which panics on any predicate outside the
//! declaration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod concurrent;
mod pattern;
mod table;
mod vertical;
mod view;

pub use concurrent::{
    EpochReader, EpochSnapshot, ExclusiveStore, ShardWriteGuard, ShardedStore, DEFAULT_SHARDS,
};
pub use pattern::TriplePattern;
pub use table::PropertyTable;
pub use vertical::{StoreStats, VerticalStore};
pub use view::StoreView;
