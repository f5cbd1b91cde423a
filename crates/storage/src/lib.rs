//! # gumbo-storage
//!
//! The storage plane: a [`Dfs`] trait standing in for HDFS, with two
//! backends, plus the local spill files the bounded-memory shuffle uses.
//!
//! The paper's algorithms interact with HDFS only through a narrow
//! interface: reading relation files (at `hr` cost/MB), writing outputs
//! (at `hw` cost/MB), the split structure that determines mapper counts,
//! and **sampling** input relations to estimate map-output sizes (Gumbo
//! optimization (3), §5.1). The [`Dfs`] trait pins that interface down —
//! free metadata ([`Dfs::stat`]), unmetered whole-relation peeks, metered
//! scans and stores, byte counters — and two backends implement it:
//!
//! * [`SimDfs`] — in-memory, deterministic, the default;
//! * [`FileDfs`] — durable file segments + manifest under a root
//!   directory, fronted by a byte-bounded LRU block cache
//!   ([`file_dfs`]).
//!
//! Alongside the DFS, the [`spill`] module provides the *local* storage
//! the bounded-memory shuffle uses: job-scoped temporary directories of
//! checksummed run files, removed via RAII on success and error paths
//! alike. [`FileDfs`] segments are run files of the same frame layout.

pub mod dfs;
pub mod file_dfs;
pub mod sample;
pub mod spill;

pub use dfs::{CacheStats, Dfs, RelStats, RelationScan, SimDfs, TupleSource};
pub use file_dfs::{FileDfs, DEFAULT_CACHE_BYTES};
pub use sample::reservoir_sample;
pub use spill::{RunReader, RunWriter, SpillDir};
