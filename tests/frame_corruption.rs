//! Storage files under corruption: one byte of a valid `FileDfs` segment
//! or shuffle spill run overwritten anywhere — length prefix, checksum or
//! block — and every frame read back. The read must return an error:
//! never a panic, never `Ok` with different tuples, and never an
//! allocation larger than the file (a corrupt length must not size one).
//!
//! The largest single allocation is tracked by a pass-through global
//! allocator, per thread and only while armed, so other tests running in
//! parallel cannot leak into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use gumbo::mr::{Message, PairBatch, Payload};
use gumbo::prelude::*;
use gumbo::storage::{RunReader, RunWriter, SpillDir};
use proptest::prelude::*;

struct LargestAlloc;

thread_local! {
    // `const` + no destructor: touching these never allocates.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
        }
    });
}

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

/// Run `f` and return the largest single allocation this thread made in
/// it.
fn largest_allocation<R>(f: impl FnOnce() -> R) -> (usize, R) {
    LARGEST.set(0);
    ARMED.set(true);
    let out = f();
    ARMED.set(false);
    (LARGEST.get(), out)
}

/// Overwrite byte `at % len` of `path` with itself XOR `mask` (nonzero),
/// in place, and return the file's length.
fn corrupt_one_byte(path: &std::path::Path, at: usize, mask: u8) -> usize {
    let mut bytes = std::fs::read(path).unwrap();
    let i = at % bytes.len();
    bytes[i] ^= mask;
    std::fs::write(path, &bytes).unwrap();
    bytes.len()
}

/// Three frames of a three-column relation: the file is larger than any
/// buffer a correct read allocates (a `BufReader`'s 8 KiB, a frame's
/// `Vec<Tuple>`).
fn relation() -> Relation {
    Relation::from_tuples(
        "R",
        3,
        (0..1300i64).map(|i| Tuple::new(vec![Value::Int(i), Value::Int(-i), Value::str("s")])),
    )
    .unwrap()
}

struct Root(PathBuf);

impl Drop for Root {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn temp_root(case: usize) -> Root {
    Root(std::env::temp_dir().join(format!(
        "gumbo-frame-corruption-{}-{case}",
        std::process::id()
    )))
}

/// One spill run of `PairBatch` frames, as the shuffle writes them.
fn spill_run(dir: &SpillDir) -> (PathBuf, Vec<(Tuple, Message)>) {
    let pairs: Vec<(Tuple, Message)> = (0..1200u32)
        .map(|i| {
            let msg = Message::Req {
                cond: i % 3,
                payload: Payload::Ref {
                    guard: 0,
                    id: u64::from(i),
                },
            };
            (Tuple::from_ints(&[i64::from(i % 97)]), msg)
        })
        .collect();
    let path = dir.run_path(0, 0);
    let mut writer = RunWriter::create(&path).unwrap();
    let mut frame = Vec::new();
    for chunk in pairs.chunks(512) {
        let mut batch = PairBatch::new();
        for (k, m) in chunk {
            batch.push_pair(k, m);
        }
        frame.clear();
        batch.encode_into(&mut frame).unwrap();
        writer.push(&frame).unwrap();
    }
    writer.finish().unwrap();
    (path, pairs)
}

/// Every frame of the run, decoded, as the reduce-side merge reads it.
fn read_run(path: &std::path::Path) -> Result<Vec<PairBatch>> {
    let mut reader = RunReader::open(path)?;
    let mut frames = Vec::new();
    while let Some(frame) = reader.next_frame()? {
        frames.push(PairBatch::decode(frame)?);
    }
    Ok(frames)
}

fn pairs_of(frames: &[PairBatch]) -> Vec<(Tuple, Message)> {
    frames.iter().flat_map(PairBatch::to_pairs).collect()
}

static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_corrupt_segment_byte_is_an_error_through_scan_and_peek(
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let root = temp_root(CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
        let r = relation();
        let dfs = FileDfs::create(&root.0, 0).unwrap();
        Dfs::store(&dfs, r.clone()).unwrap();
        let seg = std::fs::read_dir(&root.0)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "seg"))
            .unwrap();
        let file_len = corrupt_one_byte(&seg, at, mask);
        prop_assert!(file_len > 3 * 8192, "segment of {} bytes", file_len);

        let (largest, (scanned, peeked)) = largest_allocation(|| {
            let scan = Dfs::scan(&dfs, &"R".into()).unwrap();
            (scan.fetch(0..scan.len()), Dfs::peek(&dfs, &"R".into()))
        });
        prop_assert!(matches!(scanned, Err(GumboError::Storage(_))), "scan: {:?}", scanned.map(|t| t.len()));
        prop_assert!(matches!(peeked, Err(GumboError::Storage(_))), "peek: {:?}", peeked.map(|t| t.len()));
        prop_assert!(largest <= file_len, "allocated {} bytes for a {}-byte file", largest, file_len);
    }

    #[test]
    fn a_corrupt_spill_run_byte_is_an_error(at in any::<usize>(), mask in 1u8..=255) {
        let dir = SpillDir::create("frame-corruption").unwrap();
        let (path, pairs) = spill_run(&dir);
        prop_assert_eq!(pairs_of(&read_run(&path).unwrap()), pairs);
        let file_len = corrupt_one_byte(&path, at, mask);
        prop_assert!(file_len > 8192, "run of {} bytes", file_len);

        let (largest, read) = largest_allocation(|| read_run(&path));
        prop_assert!(matches!(read, Err(GumboError::Storage(_))), "read: {:?}", read.map(|p| p.len()));
        prop_assert!(largest <= file_len, "allocated {} bytes for a {}-byte file", largest, file_len);
    }
}
