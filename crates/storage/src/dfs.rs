//! The [`Dfs`] storage abstraction and its in-memory implementation.
//!
//! GUMBO's cost model (§5.1) meters every byte read from and written to
//! the distributed file system; the engine only ever touches storage
//! through a narrow interface — plan-time metadata, metered relation
//! scans, and commits. There are three ways to ask about a stored
//! relation, and each layer uses exactly one:
//!
//! * [`Dfs::stat`] — **metadata, free**: size, cardinality and arity in
//!   O(1), no tuple touched. What the planner prices plans from.
//! * [`Dfs::peek`] — **the whole relation, unmetered**: result checking,
//!   streaming answers to a client, and the planner's one value-reading
//!   corner (sampling a constant-bearing atom).
//! * [`Dfs::scan`] — **ranged and metered**: how jobs read their input.
//!
//! [`Dfs`] pins that interface down as a trait so the
//! execution layers (`gumbo-mr`, `gumbo-sched`, `gumbo-core`,
//! `gumbo-baselines`) never depend on *where* relations live:
//!
//! * [`SimDfs`] — the in-memory simulated DFS, the historical backend and
//!   still the default: deterministic, RAM-resident, nothing survives the
//!   process.
//! * [`crate::FileDfs`] — the durable backend: relations persist as
//!   length-prefixed, versioned file segments under a root directory,
//!   fronted by a byte-bounded LRU block cache (see
//!   [`crate::file_dfs`]). Survives restarts.
//!
//! # Metering contract
//!
//! Implementations must meter **logical** bytes — the paper's 10 B/value
//! layout ([`Relation::estimated_bytes`]) — never physical encoding
//! sizes, so [`Dfs::bytes_read`] / [`Dfs::bytes_written`] are
//! backend-invariant: the same program over the same database produces
//! identical counters on every backend (the workspace's
//! `tests/engine_matrix.rs` enforces this). Specifically:
//!
//! * [`Dfs::scan`] charges the stored relation's full logical size, once
//!   per call, at call time;
//! * [`Dfs::store`] charges the relation's logical size once;
//! * [`Dfs::stat`], [`Dfs::peek`], [`Dfs::exists`] and
//!   [`Dfs::file_names`] are free (namenode metadata / planner access);
//! * loading an initial database through a constructor is not metered.
//!
//! # Locking contract
//!
//! Every method takes `&self`: implementations use interior mutability
//! (and must be [`Sync`]), so a scheduler can share one `&dyn Dfs` across
//! worker threads with no external lock. Writers ([`Dfs::store`],
//! [`Dfs::delete`]) may block readers briefly, but a [`Dfs::scan`] handle
//! returned *before* a concurrent overwrite must keep yielding the
//! snapshot it was opened on (both backends guarantee this: `SimDfs`
//! hands out `Arc` snapshots, `FileDfs` segments are immutable files
//! replaced — never mutated — on overwrite).

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use gumbo_common::{
    ByteSize, Database, GumboError, Relation, RelationName, Result, Tuple, TupleView,
};

/// What [`Dfs::stat`] knows about one stored relation without touching a
/// tuple — the three numbers the planner prices plans from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelStats {
    /// Logical size (the paper's 10 B/value layout).
    pub bytes: ByteSize,
    /// Number of tuples.
    pub tuples: u64,
    /// Arity.
    pub arity: usize,
}

/// Block-cache observability counters, as reported by [`Dfs::cache_stats`].
///
/// All zeros for backends without a cache (the in-memory [`SimDfs`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Block lookups served from the cache.
    pub hits: u64,
    /// Block lookups that had to load from the backing store.
    pub misses: u64,
    /// Blocks evicted to stay within the byte budget.
    pub evictions: u64,
    /// Bytes currently held by the cache.
    pub cached_bytes: u64,
    /// The configured byte budget (0 = no cache).
    pub capacity_bytes: u64,
}

impl CacheStats {
    /// Fraction of block lookups served from the cache, `None` when no
    /// lookups happened (so a cold or cacheless backend reads as "n/a"
    /// rather than a perfect or zero rate).
    pub fn hit_rate(&self) -> Option<f64> {
        let lookups = self.hits + self.misses;
        (lookups > 0).then(|| self.hits as f64 / lookups as f64)
    }
}

/// A source of tuples for one opened scan: visits any sub-range of the
/// relation's canonical (sorted) tuple order in place, independently of
/// the DFS instance's locks, so map tasks on worker threads can walk
/// their splits concurrently. Backends decide what a visit costs: the
/// in-memory DFS indexes the rows of its `Arc` snapshot of the relation;
/// the file backend walks the decoded segment frames covering the range
/// (through the block cache). Both hand out [`TupleView`]s into columnar
/// rows; neither builds a tuple to visit it.
pub trait TupleSource: Send + Sync {
    /// Call `visit` on every tuple at `range` of the relation's canonical
    /// order, in that order, read in place. Out-of-bounds ranges are
    /// clamped to the relation.
    fn for_each(&self, range: Range<usize>, visit: &mut dyn FnMut(TupleView<'_>)) -> Result<()>;
}

/// A metered streaming scan over one stored relation.
///
/// Opening the scan charges the relation's full logical size to the
/// read counter (the paper meters whole-file input costs); the handle
/// then yields tuples lazily, range by range, so callers never need the
/// whole relation resident — the point of the durable backend.
pub struct RelationScan {
    name: RelationName,
    arity: usize,
    len: usize,
    bytes: ByteSize,
    source: Arc<dyn TupleSource>,
}

impl RelationScan {
    /// Assemble a scan handle (backend constructors only).
    pub fn new(
        name: RelationName,
        arity: usize,
        len: usize,
        bytes: ByteSize,
        source: Arc<dyn TupleSource>,
    ) -> RelationScan {
        RelationScan {
            name,
            arity,
            len,
            bytes,
            source,
        }
    }

    /// The scanned relation's name.
    pub fn name(&self) -> &RelationName {
        &self.name
    }

    /// The scanned relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Total tuples in the relation.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Logical size of the relation (already metered at open).
    pub fn bytes(&self) -> ByteSize {
        self.bytes
    }

    /// Visit the tuples of `range` in canonical order, borrowed in place
    /// ([`TupleSource::for_each`]): how map tasks read their splits.
    /// Out-of-bounds ranges are clamped.
    pub fn for_each(
        &self,
        range: Range<usize>,
        visit: &mut dyn FnMut(TupleView<'_>),
    ) -> Result<()> {
        self.source.for_each(range, visit)
    }

    /// The tuples of `range` (canonical order) as owned tuples — a
    /// collect over [`RelationScan::for_each`] for tests and tools; jobs
    /// visit. Out-of-bounds ranges are clamped.
    pub fn fetch(&self, range: Range<usize>) -> Result<Vec<Tuple>> {
        let mut out = Vec::with_capacity(range.end.min(self.len).saturating_sub(range.start));
        self.for_each(range, &mut |t| out.push(t.to_tuple()))?;
        Ok(out)
    }
}

impl std::fmt::Debug for RelationScan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelationScan")
            .field("name", &self.name)
            .field("len", &self.len)
            .field("bytes", &self.bytes)
            .finish()
    }
}

/// The distributed-file-system contract every storage backend implements.
///
/// A stored relation is reached through three verbs: [`Dfs::stat`]
/// (metadata, free), [`Dfs::peek`] (whole relation, unmetered) and
/// [`Dfs::scan`] (ranged, metered). See the [module docs](self) for the
/// metering and locking contracts.
/// All methods take `&self`; implementations are `Send + Sync` and manage
/// their own interior locking, so call sites share a `&dyn Dfs` freely
/// across threads.
pub trait Dfs: Send + Sync + std::fmt::Debug {
    /// A short backend name (`"sim"`, `"file"`) for logs and reports.
    fn backend(&self) -> &'static str;

    /// Store a relation, overwriting any previous file of the same name
    /// and counting the write (logical bytes).
    fn store(&self, relation: Relation) -> Result<ByteSize>;

    /// Size, cardinality and arity of a relation from metadata alone:
    /// O(1), unmetered, no tuple touched (namenode access).
    fn stat(&self, name: &RelationName) -> Result<RelStats>;

    /// Materialise a whole relation *without* counting a read
    /// (result checking, answer streaming, planner sampling).
    fn peek(&self, name: &RelationName) -> Result<Arc<Relation>>;

    /// Open a metered streaming scan: charges the full logical size at
    /// open, then yields tuples lazily.
    fn scan(&self, name: &RelationName) -> Result<RelationScan>;

    /// Whether a file exists.
    fn exists(&self, name: &RelationName) -> bool;

    /// Delete a file; returns whether it was present.
    fn delete(&self, name: &RelationName) -> Result<bool>;

    /// Names of all stored files, sorted.
    fn file_names(&self) -> Vec<RelationName>;

    /// Total metered bytes read so far (HDFS input-cost counter).
    fn bytes_read(&self) -> ByteSize;

    /// Total metered bytes written so far.
    fn bytes_written(&self) -> ByteSize;

    /// Reset the I/O counters (between experiments).
    fn reset_counters(&self);

    /// Export the current file set as a [`Database`] (result checking).
    fn to_database(&self) -> Result<Database> {
        let mut db = Database::new();
        for name in self.file_names() {
            db.add_relation(self.peek(&name)?.as_ref().clone());
        }
        Ok(db)
    }

    /// Block-cache counters; all zeros for cacheless backends.
    fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Durability barrier: after `flush` returns, committed relations
    /// survive a process exit. No-op for volatile backends.
    fn flush(&self) -> Result<()> {
        Ok(())
    }
}

/// A file in the simulated DFS: one stored relation plus its logical size.
#[derive(Debug, Clone)]
struct DfsFile {
    relation: Arc<Relation>,
    bytes: ByteSize,
}

/// An in-memory simulated distributed file system.
///
/// Files are keyed by relation name (the engine stores each relation —
/// base input, intermediate `Xᵢ`, or query output — as one file). Reads and
/// writes bump byte counters that back the paper's *input cost* metric
/// ("number of bytes read from hdfs over the entire MR plan", §5.1).
///
/// The file map lives behind an internal `RwLock` and the byte counters
/// are atomic, so a `SimDfs` is [`Sync`] and every operation takes
/// `&self`: concurrently scheduled jobs (the DAG scheduler in
/// `gumbo-sched`) plan, read and commit through one shared `&dyn Dfs`
/// with no external lock. Relations are handed out as `Arc` snapshots —
/// an overwrite replaces the stored `Arc`, it never mutates data a
/// concurrent reader already holds.
#[derive(Debug, Default)]
pub struct SimDfs {
    files: RwLock<BTreeMap<RelationName, DfsFile>>,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

// The whole point of interior locking + atomic counters: a shared DFS can
// serve concurrent, metered traffic. (Compile-time regression check.)
const _: () = {
    const fn assert_sync<T: Sync + Send>() {}
    assert_sync::<SimDfs>()
};

/// A scan source over an in-memory relation snapshot.
struct SimScanSource {
    relation: Arc<Relation>,
}

impl TupleSource for SimScanSource {
    fn for_each(&self, range: Range<usize>, visit: &mut dyn FnMut(TupleView<'_>)) -> Result<()> {
        let end = range.end.min(self.relation.len());
        let start = range.start.min(end);
        for row in start..end {
            visit(self.relation.row(row));
        }
        Ok(())
    }
}

impl SimDfs {
    /// Create an empty DFS.
    pub fn new() -> Self {
        SimDfs::default()
    }

    /// Create a DFS pre-loaded with every relation of a database.
    pub fn from_database(db: &Database) -> Self {
        let dfs = SimDfs::new();
        for rel in db.relations() {
            dfs.store(rel.clone())
                .expect("an in-memory store cannot fail");
        }
        // Loading the initial database is not a metered write.
        dfs.bytes_written.store(0, Ordering::Relaxed);
        dfs
    }

    fn file(&self, name: &RelationName) -> Result<DfsFile> {
        self.files
            .read()
            .expect("unpoisoned DFS file map")
            .get(name)
            .cloned()
            .ok_or_else(|| GumboError::UnknownRelation(name.to_string()))
    }
}

impl Dfs for SimDfs {
    fn backend(&self) -> &'static str {
        "sim"
    }

    fn store(&self, relation: Relation) -> Result<ByteSize> {
        let bytes = ByteSize::bytes(relation.estimated_bytes());
        self.bytes_written
            .fetch_add(bytes.as_bytes(), Ordering::Relaxed);
        self.files.write().expect("unpoisoned DFS file map").insert(
            relation.name().clone(),
            DfsFile {
                relation: Arc::new(relation),
                bytes,
            },
        );
        Ok(bytes)
    }

    fn stat(&self, name: &RelationName) -> Result<RelStats> {
        self.file(name).map(|f| RelStats {
            bytes: f.bytes,
            tuples: f.relation.len() as u64,
            arity: f.relation.arity(),
        })
    }

    fn peek(&self, name: &RelationName) -> Result<Arc<Relation>> {
        self.file(name).map(|f| f.relation)
    }

    fn scan(&self, name: &RelationName) -> Result<RelationScan> {
        // Meter the whole file at open; the handle then serves ranges
        // from the Arc snapshot, lock-free.
        let DfsFile { relation, bytes } = self.file(name)?;
        self.bytes_read
            .fetch_add(bytes.as_bytes(), Ordering::Relaxed);
        Ok(RelationScan::new(
            name.clone(),
            relation.arity(),
            relation.len(),
            bytes,
            Arc::new(SimScanSource { relation }),
        ))
    }

    fn exists(&self, name: &RelationName) -> bool {
        (self.files.read())
            .expect("unpoisoned DFS file map")
            .contains_key(name)
    }

    fn delete(&self, name: &RelationName) -> Result<bool> {
        let mut files = self.files.write().expect("unpoisoned DFS file map");
        Ok(files.remove(name).is_some())
    }

    fn file_names(&self) -> Vec<RelationName> {
        (self.files.read())
            .expect("unpoisoned DFS file map")
            .keys()
            .cloned()
            .collect()
    }

    fn bytes_read(&self) -> ByteSize {
        ByteSize::bytes(self.bytes_read.load(Ordering::Relaxed))
    }

    fn bytes_written(&self) -> ByteSize {
        ByteSize::bytes(self.bytes_written.load(Ordering::Relaxed))
    }

    fn reset_counters(&self) {
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gumbo_common::{Fact, Tuple};

    fn rel(name: &str, n: i64) -> Relation {
        Relation::from_tuples(name, 2, (0..n).map(|i| Tuple::from_ints(&[i, i + 1]))).unwrap()
    }

    #[test]
    fn store_and_scan_count_bytes() {
        let dfs = SimDfs::new();
        let written = dfs.store(rel("R", 5)).unwrap();
        assert_eq!(written, ByteSize::bytes(5 * 20));
        assert_eq!(dfs.bytes_written(), written);
        let scan = dfs.scan(&"R".into()).unwrap();
        assert_eq!(scan.len(), 5);
        assert_eq!(dfs.bytes_read(), written);
        // A second scan counts again.
        dfs.scan(&"R".into()).unwrap();
        assert_eq!(dfs.bytes_read(), written * 2);
    }

    #[test]
    fn stat_and_peek_are_free() {
        let dfs = SimDfs::new();
        let written = dfs.store(rel("R", 3)).unwrap();
        dfs.peek(&"R".into()).unwrap();
        assert_eq!(
            dfs.stat(&"R".into()).unwrap(),
            RelStats {
                bytes: written,
                tuples: 3,
                arity: 2
            }
        );
        assert_eq!(dfs.bytes_read(), ByteSize::ZERO);
    }

    #[test]
    fn missing_file_errors() {
        let dfs = SimDfs::new();
        assert!(dfs.scan(&"Q".into()).is_err());
        assert!(dfs.peek(&"Q".into()).is_err());
        assert!(dfs.stat(&"Q".into()).is_err());
    }

    #[test]
    fn from_database_does_not_count_initial_load() {
        let mut db = Database::new();
        db.insert_fact(Fact::new("R", Tuple::from_ints(&[1, 2])))
            .unwrap();
        let dfs = SimDfs::from_database(&db);
        assert_eq!(dfs.bytes_written(), ByteSize::ZERO);
        assert!(dfs.exists(&"R".into()));
    }

    #[test]
    fn delete_removes() {
        let dfs = SimDfs::new();
        dfs.store(rel("R", 1)).unwrap();
        assert!(dfs.delete(&"R".into()).unwrap());
        assert!(!dfs.exists(&"R".into()));
        assert!(!dfs.delete(&"R".into()).unwrap());
    }

    #[test]
    fn overwrite_replaces_contents() {
        let dfs = SimDfs::new();
        dfs.store(rel("R", 5)).unwrap();
        dfs.store(rel("R", 2)).unwrap();
        assert_eq!(dfs.peek(&"R".into()).unwrap().len(), 2);
    }

    #[test]
    fn scan_meters_once_and_fetches_ranges() {
        let dfs = SimDfs::new();
        let written = dfs.store(rel("R", 10)).unwrap();
        let scan = Dfs::scan(&dfs, &"R".into()).unwrap();
        assert_eq!(dfs.bytes_read(), written, "scan meters the whole file");
        assert_eq!(scan.len(), 10);
        assert_eq!(scan.arity(), 2);
        // Ranges come back in canonical order and re-assemble the whole.
        let head = scan.fetch(0..3).unwrap();
        let tail = scan.fetch(3..10).unwrap();
        assert_eq!(head.len(), 3);
        assert_eq!(tail.len(), 7);
        let all = scan.fetch(0..10).unwrap();
        assert_eq!(
            head.into_iter().chain(tail).collect::<Vec<_>>(),
            all,
            "range fetches concatenate to the full scan"
        );
        // No further metering from fetches.
        assert_eq!(dfs.bytes_read(), written);
        // Out-of-bounds is clamped, not an error.
        assert!(scan.fetch(10..20).unwrap().is_empty());
    }

    #[test]
    fn scan_snapshot_survives_concurrent_overwrite() {
        let dfs = SimDfs::new();
        dfs.store(rel("R", 5)).unwrap();
        let scan = Dfs::scan(&dfs, &"R".into()).unwrap();
        dfs.store(rel("R", 2)).unwrap(); // overwrite while the scan is open
        assert_eq!(scan.fetch(0..5).unwrap().len(), 5, "snapshot isolation");
        assert_eq!(dfs.peek(&"R".into()).unwrap().len(), 2);
    }

    #[test]
    fn concurrent_metered_scans_hammer_counters() {
        // 8 threads × 200 metered scans each through a shared reference:
        // the atomic counters must account every single scan, and the
        // relation contents must stay readable throughout.
        let dfs = SimDfs::new();
        dfs.store(rel("R", 4)).unwrap(); // 4 tuples × 20 B = 80 B per scan
        dfs.store(rel("S", 2)).unwrap(); // 2 tuples × 20 B = 40 B per scan
        let dfs = &dfs;
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(move || {
                    for i in 0..200 {
                        let name = if i % 2 == 0 { "R" } else { "S" };
                        let n = if i % 2 == 0 { 4 } else { 2 };
                        let scan = dfs.scan(&name.into()).unwrap();
                        assert_eq!(scan.fetch(0..n).unwrap().len(), n);
                    }
                });
            }
        });
        let expected = 8 * (100 * 80 + 100 * 40);
        assert_eq!(dfs.bytes_read(), ByteSize::bytes(expected));
    }

    #[test]
    fn concurrent_stores_and_reads_are_safe() {
        // Writers overwrite R while readers hold and use snapshots: no
        // torn reads, every snapshot is a complete relation.
        let dfs = SimDfs::new();
        dfs.store(rel("R", 8)).unwrap();
        let dfs = &dfs;
        std::thread::scope(|scope| {
            for w in 0..4 {
                scope.spawn(move || {
                    for n in 1..30 {
                        dfs.store(rel("R", (w * 30 + n) % 9 + 1)).unwrap();
                    }
                });
            }
            for _ in 0..4 {
                scope.spawn(move || {
                    for _ in 0..100 {
                        let r = dfs.peek(&"R".into()).unwrap();
                        let n = r.len();
                        assert!((1..=9).contains(&n), "complete snapshot, got {n}");
                        assert_eq!(r.iter().count(), n);
                    }
                });
            }
        });
    }

    #[test]
    fn to_database_round_trip() {
        let dfs = SimDfs::new();
        dfs.store(rel("A", 2)).unwrap();
        dfs.store(rel("B", 3)).unwrap();
        let db = dfs.to_database().unwrap();
        assert_eq!(db.relation_count(), 2);
        assert_eq!(db.get("B").unwrap().len(), 3);
    }

    #[test]
    fn trait_object_round_trip() {
        // The whole surface works through `&dyn Dfs`.
        let sim = SimDfs::new();
        let dfs: &dyn Dfs = &sim;
        assert_eq!(dfs.backend(), "sim");
        dfs.store(rel("R", 3)).unwrap();
        assert!(dfs.exists(&"R".into()));
        assert_eq!(dfs.stat(&"R".into()).unwrap().tuples, 3);
        assert_eq!(dfs.scan(&"R".into()).unwrap().len(), 3);
        assert_eq!(dfs.file_names(), vec![RelationName::from("R")]);
        assert_eq!(dfs.cache_stats(), CacheStats::default());
        dfs.flush().unwrap();
        assert!(dfs.delete(&"R".into()).unwrap());
        assert!(!dfs.delete(&"R".into()).unwrap());
    }
}
