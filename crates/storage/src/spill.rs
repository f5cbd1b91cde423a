//! Job-scoped spill directories and on-disk run files.
//!
//! When the shuffle's in-memory buffers would exceed the configured
//! memory budget (see `gumbo_mr::shuffle`), sorted runs of key-value
//! pairs are flushed to disk and merged back lazily during the reduce
//! phase. This module owns the *filesystem* half of that story:
//!
//! * [`SpillDir`] — a job-scoped temporary directory holding every run
//!   file of one job's shuffle. Removal is RAII ([`Drop`]), so the
//!   directory disappears on success, on error returns, and on panics
//!   alike — `cargo test` leaves no spill litter behind.
//! * [`RunWriter`] / [`RunReader`] — buffered files of checksummed
//!   frames, the one on-disk layout of both file kinds: shuffle spill
//!   runs and [`crate::file_dfs`] segments. Every frame is stored as
//!   `[len u32][checksum u64][block]`. Both fill the block with columnar
//!   `gumbo_common::TupleBatch` encodings: a segment frame is one batch,
//!   a spill frame is the shuffle's `PairBatch` (`gumbo-mr`), whose keys
//!   and payloads are batches. A reader verifies the checksum before it
//!   hands a block on, so a flipped bit in a run or a segment is a
//!   [`GumboError::Storage`] naming the file and the frame, never a
//!   different tuple. A writer can take a frame laid out in place behind
//!   room for its header ([`RunWriter::push_framed`]) and write it in one
//!   call; a reader reads every frame, with the next frame's header, into
//!   one reused buffer. A run opened with the frame count and length its
//!   writer reported ([`RunReader::open_expecting`]) is refused when the
//!   file no longer matches them: a run cut at a frame boundary is
//!   otherwise a well-formed, shorter run.
//!
//! Blocks are stored raw. Byte-level RLE was measured on both file kinds
//! and cut: on spill runs it cost 6–14 % more wall and CPU on the
//! budgeted shuffle; on segments it cut a durable store's disk bytes by
//! 35 % but slowed full scans by 15–17 %, against a bar of no metric
//! worse by more than 5 %.

use std::fs::{self, File};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use gumbo_common::{GumboError, Result};

/// Process-wide sequence so concurrent jobs (and repeated jobs of one
/// process) never collide on a directory name.
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn storage_err(context: &str, e: std::io::Error) -> GumboError {
    GumboError::Storage(format!("{context}: {e}"))
}

/// A job-scoped temporary directory for shuffle spill runs.
///
/// Created under the system temp dir with a unique name; removed (with
/// everything inside) when dropped, covering both success and error
/// paths of the owning job.
#[derive(Debug)]
pub struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    /// Create a fresh spill directory for a job. `label` is embedded in
    /// the directory name (sanitized) purely for debuggability.
    ///
    /// Runs land under `$GUMBO_SPILL_DIR` when set, else the system temp
    /// dir. On distros where `/tmp` is RAM-backed tmpfs, spilling there
    /// would consume the very memory the budget protects — point
    /// `GUMBO_SPILL_DIR` at real disk in that case.
    pub fn create(label: &str) -> Result<SpillDir> {
        let root = std::env::var_os("GUMBO_SPILL_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        SpillDir::create_under(&root, label)
    }

    /// [`SpillDir::create`] with an explicit spill root.
    pub fn create_under(root: &Path, label: &str) -> Result<SpillDir> {
        let clean: String = label
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .take(40)
            .collect();
        let path = root.join(format!(
            "gumbo-spill-{}-{}-{clean}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        fs::create_dir_all(&path).map_err(|e| storage_err("creating spill dir", e))?;
        Ok(SpillDir { path })
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The path for one run file: partition `partition`, sequence `seq`
    /// within that partition.
    pub fn run_path(&self, partition: usize, seq: u64) -> PathBuf {
        self.path.join(format!("p{partition}-r{seq}.run"))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        // Best effort: a failure to clean a temp dir must not mask the
        // job's own outcome (including an unwind in progress).
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// Bytes of a frame header: `[len u32][checksum u64]`.
pub(crate) const FRAME_HEADER: u64 = 12;

/// The frame checksum: a word-at-a-time multiply–xor fold over the
/// block, zero-padding the last word, seeded with the block's length.
///
/// Each step `h ↦ rotl((h ⊕ w) · K, 31)` with `K` odd is a bijection of
/// the running state for a fixed word `w`, and injective in `w` for a
/// fixed state. So two blocks of one length that differ only inside one
/// aligned 8-byte word always get different checksums: every single-bit
/// flip is detected, not just most. Not cryptographic — it guards
/// against corruption, not an adversary. The nonzero seed makes an
/// all-zero header (a zero-filled tail) a mismatch, not an empty frame.
fn checksum(block: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(K).rotate_left(31);
    let mut words = block.chunks_exact(8);
    let mut h = 0x6A09_E667_F3BC_C908 ^ block.len() as u64;
    for w in &mut words {
        h = step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        h = step(h, u64::from_le_bytes(last));
    }
    h
}

/// Read one frame from `r`, which holds at most `*left` more bytes of
/// `file`, into `block`, and verify its checksum before handing the block
/// on. `false` at a clean end of file; `frame` is the frame's index, for
/// errors. `block` is overwritten, so one buffer serves frame after frame.
///
/// When at least a header's worth of the file follows the block, the next
/// frame's header is read with it, into `ahead`, and taken from there by
/// the next call: a frame costs one read. A reader of exactly one frame
/// (`*left` is its extent) never reads ahead.
///
/// A *torn* header (EOF inside it) and a truncated block are errors,
/// not ends of file: silently ending a run early would drop data and
/// return a wrong answer with exit code 0. The length never sizes an
/// allocation the file cannot back: one flipped bit would ask for up to
/// 4 GiB, zeroed.
pub(crate) fn read_frame(
    r: &mut impl Read,
    left: &mut u64,
    file: &Path,
    frame: u64,
    block: &mut Vec<u8>,
    ahead: &mut Option<[u8; FRAME_HEADER as usize]>,
) -> Result<bool> {
    let corrupt =
        |what: String| GumboError::Storage(format!("frame {frame} of {}: {what}", file.display()));
    let mut header = [0u8; FRAME_HEADER as usize];
    if let Some(read) = ahead.take() {
        header = read;
    } else {
        let mut got = 0;
        while got < header.len() {
            match r.read(&mut header[got..]) {
                Ok(0) if got == 0 => return Ok(false),
                Ok(0) => return Err(corrupt("truncated frame header (torn file)".into())),
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(corrupt(format!("reading frame header: {e}"))),
            }
        }
    }
    let len = u64::from(u32::from_le_bytes(header[..4].try_into().expect("4 bytes")));
    let sum = u64::from_le_bytes(header[4..].try_into().expect("8 bytes"));
    *left = left.saturating_sub(FRAME_HEADER);
    if len > *left {
        return Err(corrupt(format!(
            "claims {len} bytes, {left} left (torn or corrupt file)"
        )));
    }
    *left -= len;
    let len = len as usize;
    let next = if *left >= FRAME_HEADER {
        FRAME_HEADER as usize
    } else {
        0
    };
    block.clear();
    block.resize(len + next, 0);
    r.read_exact(block)
        .map_err(|e| corrupt(format!("reading frame (torn file): {e}")))?;
    if next > 0 {
        *ahead = Some(block[len..].try_into().expect("a header"));
        block.truncate(len);
    }
    if checksum(block) != sum {
        return Err(corrupt("checksum mismatch (corrupt file)".into()));
    }
    Ok(true)
}

/// The header of a frame holding `block`: `[len u32][checksum u64]`.
fn frame_header(block: &[u8]) -> Result<[u8; FRAME_HEADER as usize]> {
    let len = u32::try_from(block.len())
        .map_err(|_| GumboError::Storage("spill frame exceeds 4 GiB".into()))?;
    let mut header = [0u8; FRAME_HEADER as usize];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&checksum(block).to_le_bytes());
    Ok(header)
}

/// Buffered writer of checksummed frames.
pub struct RunWriter {
    writer: BufWriter<File>,
    frames: u64,
    bytes: u64,
}

impl RunWriter {
    /// Bytes of room a frame laid out for
    /// [`push_framed`](Self::push_framed) keeps in front of its block.
    pub const HEADER: usize = FRAME_HEADER as usize;

    /// Create (truncating) a run file.
    pub fn create(path: &Path) -> Result<RunWriter> {
        let file = File::create(path).map_err(|e| storage_err("creating spill run", e))?;
        Ok(RunWriter {
            writer: BufWriter::new(file),
            frames: 0,
            bytes: 0,
        })
    }

    /// Append one frame: `[len u32][checksum u64][block]`.
    pub fn push(&mut self, block: &[u8]) -> Result<()> {
        let header = frame_header(block)?;
        self.writer
            .write_all(&header)
            .and_then(|()| self.writer.write_all(block))
            .map_err(|e| storage_err("writing spill run", e))?;
        self.count(block.len());
        Ok(())
    }

    /// Append one frame laid out in place: `frame` is
    /// [`HEADER`](Self::HEADER) bytes of room followed by the block. The
    /// header is filled in there and the whole frame goes to the file in
    /// one write — the bytes [`push`](Self::push) of the block writes,
    /// without splitting a frame larger than the write buffer into two
    /// writes.
    ///
    /// # Panics
    /// If `frame` is shorter than [`HEADER`](Self::HEADER).
    pub fn push_framed(&mut self, frame: &mut [u8]) -> Result<()> {
        let (header, block) = frame.split_at_mut(Self::HEADER);
        header.copy_from_slice(&frame_header(block)?);
        self.writer
            .write_all(frame)
            .map_err(|e| storage_err("writing spill run", e))?;
        self.count(frame.len() - Self::HEADER);
        Ok(())
    }

    fn count(&mut self, block: usize) {
        self.frames += 1;
        self.bytes += FRAME_HEADER + block as u64;
    }

    /// Flush and close, returning `(frames, file bytes)` written.
    pub fn finish(mut self) -> Result<(u64, u64)> {
        self.writer
            .flush()
            .map_err(|e| storage_err("flushing spill run", e))?;
        Ok((self.frames, self.bytes))
    }
}

/// Reader of checksummed frames, reading every frame — with the header of
/// the next — into one reused buffer, one read a frame.
pub struct RunReader {
    file: File,
    path: PathBuf,
    /// Bytes of the file not yet consumed (its length at open, minus every
    /// frame read since): the most a length prefix can honestly claim.
    left: u64,
    /// Frames read so far: the next frame's index.
    frames: u64,
    /// The frame count the writer reported, when the caller knows it.
    expected_frames: Option<u64>,
    block: Vec<u8>,
    /// The next frame's header, read with the last block.
    ahead: Option<[u8; FRAME_HEADER as usize]>,
}

impl RunReader {
    /// Open a run file for sequential reading.
    pub fn open(path: &Path) -> Result<RunReader> {
        let file = File::open(path).map_err(|e| storage_err("opening spill run", e))?;
        let left = file
            .metadata()
            .map_err(|e| storage_err("statting spill run", e))?
            .len();
        Ok(RunReader {
            file,
            path: path.to_path_buf(),
            left,
            frames: 0,
            expected_frames: None,
            block: Vec::new(),
            ahead: None,
        })
    }

    /// Open a run file whose [`RunWriter::finish`] reported `frames`
    /// frames and `bytes` bytes. A file of any other length is refused
    /// here, and a clean end of file after any other number of frames by
    /// [`next_frame`](Self::next_frame): a run cut at a frame boundary
    /// reads as well-formed frames, so only the writer's record tells it
    /// from a shorter run.
    pub fn open_expecting(path: &Path, frames: u64, bytes: u64) -> Result<RunReader> {
        let mut reader = RunReader::open(path)?;
        if reader.left != bytes {
            return Err(GumboError::Storage(format!(
                "spill run {}: {} bytes on disk, {bytes} written (truncated or overwritten run)",
                path.display(),
                reader.left
            )));
        }
        reader.expected_frames = Some(frames);
        Ok(reader)
    }

    /// Read the next frame's block, checksum verified, or `None` at a
    /// clean end of file. The block borrows the reader's buffer, which the
    /// next call overwrites.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>> {
        let found = read_frame(
            &mut self.file,
            &mut self.left,
            &self.path,
            self.frames,
            &mut self.block,
            &mut self.ahead,
        )?;
        if !found {
            return match self.expected_frames {
                Some(expected) if expected != self.frames => Err(GumboError::Storage(format!(
                    "spill run {}: ended after {} frames, {expected} written (truncated run)",
                    self.path.display(),
                    self.frames
                ))),
                _ => Ok(None),
            };
        }
        self.frames += 1;
        Ok(Some(&self.block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_in_order() {
        let dir = SpillDir::create("roundtrip").unwrap();
        let path = dir.run_path(3, 0);
        let mut w = RunWriter::create(&path).unwrap();
        let frames: Vec<Vec<u8>> = (0..100u8).map(|i| vec![i; i as usize]).collect();
        for f in &frames {
            w.push(f).unwrap();
        }
        let (n, bytes) = w.finish().unwrap();
        assert_eq!(n, 100);
        // 12-byte header (length + checksum) + block, per frame.
        assert_eq!(
            bytes,
            frames.iter().map(|f| 12 + f.len() as u64).sum::<u64>()
        );

        let mut r = RunReader::open(&path).unwrap();
        for f in &frames {
            assert_eq!(r.next_frame().unwrap(), Some(f.as_slice()));
        }
        assert!(r.next_frame().unwrap().is_none());
    }

    #[test]
    fn spill_dir_is_removed_on_drop() {
        let dir = SpillDir::create("cleanup").unwrap();
        let path = dir.path().to_path_buf();
        let run = dir.run_path(0, 0);
        let mut w = RunWriter::create(&run).unwrap();
        w.push(b"payload").unwrap();
        w.finish().unwrap();
        assert!(path.is_dir());
        assert!(run.is_file());
        drop(dir);
        assert!(!path.exists(), "spill dir {path:?} survived drop");
    }

    #[test]
    fn spill_dir_is_removed_on_panic_unwind() {
        let seen = std::sync::Mutex::new(PathBuf::new());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let dir = SpillDir::create("unwind").unwrap();
            *seen.lock().unwrap() = dir.path().to_path_buf();
            panic!("job failed mid-shuffle");
        }));
        assert!(outcome.is_err());
        let path = seen.lock().unwrap().clone();
        assert!(!path.exists(), "spill dir {path:?} survived an unwind");
    }

    #[test]
    fn run_paths_are_distinct_per_partition_and_seq() {
        let dir = SpillDir::create("paths").unwrap();
        let mut all: Vec<PathBuf> = Vec::new();
        for p in 0..3 {
            for s in 0..3 {
                all.push(dir.run_path(p, s));
            }
        }
        let unique: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
    }

    #[test]
    fn dirs_of_concurrent_jobs_do_not_collide() {
        let a = SpillDir::create("same-label").unwrap();
        let b = SpillDir::create("same-label").unwrap();
        assert_ne!(a.path(), b.path());
    }

    #[test]
    fn explicit_spill_root_is_honored() {
        let root = std::env::temp_dir().join(format!("gumbo-spill-root-{}", std::process::id()));
        let dir = SpillDir::create_under(&root, "rooted").unwrap();
        assert!(dir.path().starts_with(&root), "{:?}", dir.path());
        let inner = dir.path().to_path_buf();
        drop(dir);
        assert!(!inner.exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_length_prefix_is_an_error_not_eof() {
        let dir = SpillDir::create("torn").unwrap();
        let path = dir.run_path(0, 0);
        let mut w = RunWriter::create(&path).unwrap();
        w.push(b"intact").unwrap();
        w.finish().unwrap();
        // Truncate mid-prefix of a would-be second frame.
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&[7, 0]); // 2 of 4 length bytes
        fs::write(&path, bytes).unwrap();

        let mut r = RunReader::open(&path).unwrap();
        assert_eq!(r.next_frame().unwrap(), Some(b"intact".as_slice()));
        let err = r.next_frame().unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
    }

    #[test]
    fn torn_frame_header_and_body_are_errors() {
        let dir = SpillDir::create("torn-header").unwrap();
        // A full header claiming 5 bytes, but no block: the body read
        // must fail loudly.
        let torn_body = dir.run_path(0, 0);
        let mut header = 5u32.to_le_bytes().to_vec();
        header.extend_from_slice(&checksum(&[0; 5]).to_le_bytes());
        fs::write(&torn_body, header).unwrap();
        let err = RunReader::open(&torn_body)
            .unwrap()
            .next_frame()
            .unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");

        // An all-zero header (a zero-filled tail) is not an empty frame.
        let zeroed = dir.run_path(0, 1);
        fs::write(&zeroed, [0u8; 12]).unwrap();
        let err = RunReader::open(&zeroed).unwrap().next_frame().unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    /// A spill run holding one columnar frame with ints and strings.
    fn columnar_run(dir: &SpillDir) -> (PathBuf, Vec<u8>) {
        use gumbo_common::{Tuple, TupleBatch, Value};
        let mut batch = TupleBatch::new(2);
        for i in 0..6 {
            batch.push_tuple(&Tuple::new(vec![Value::Int(i), Value::str("ab")]));
        }
        let mut block = Vec::new();
        batch.encode_into(&mut block).unwrap();
        let path = dir.run_path(0, 0);
        let mut w = RunWriter::create(&path).unwrap();
        w.push(&block).unwrap();
        w.finish().unwrap();
        (path, block)
    }

    #[test]
    fn every_single_bit_flip_of_a_block_is_a_checksum_error() {
        let dir = SpillDir::create("bitflip").unwrap();
        let (path, block) = columnar_run(&dir);
        let clean = fs::read(&path).unwrap();
        // The checksum and the block: every bit a reader trusts after the
        // length prefix.
        for bit in 4 * 8..clean.len() * 8 {
            let mut bytes = clean.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            fs::write(&path, &bytes).unwrap();
            let err = RunReader::open(&path).unwrap().next_frame().unwrap_err();
            assert!(matches!(err, GumboError::Storage(_)), "bit {bit}: {err:?}");
            let msg = err.to_string();
            assert!(msg.contains("checksum") && msg.contains("frame 0"), "{msg}");
            assert!(msg.contains(&path.display().to_string()), "{msg}");
        }
        fs::write(&path, &clean).unwrap();
        let mut r = RunReader::open(&path).unwrap();
        assert_eq!(r.next_frame().unwrap(), Some(block.as_slice()));
    }

    #[test]
    fn checksum_separates_every_change_inside_one_word() {
        // Every value of one byte, at each position of a short tail word
        // and of a full word: all checksums distinct.
        for len in [3usize, 8, 13] {
            for at in 0..len {
                let sums: std::collections::BTreeSet<u64> = (0..=255u8)
                    .map(|b| {
                        let mut block = vec![0x5Au8; len];
                        block[at] = b;
                        checksum(&block)
                    })
                    .collect();
                assert_eq!(sums.len(), 256, "len {len}, byte {at}");
            }
        }
        assert_ne!(checksum(&[]), checksum(&[0]), "length is folded in");
    }

    #[test]
    fn flipped_length_prefix_is_an_error_not_an_allocation() {
        let dir = SpillDir::create("lenflip").unwrap();
        let path = dir.run_path(0, 0);
        let mut w = RunWriter::create(&path).unwrap();
        w.push(b"first").unwrap();
        w.push(b"second").unwrap();
        w.finish().unwrap();
        // The second frame's length prefix turns into "4 GiB follow".
        let mut bytes = fs::read(&path).unwrap();
        let second = 12 + b"first".len();
        bytes[second..second + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&path, bytes).unwrap();

        let mut r = RunReader::open(&path).unwrap();
        assert_eq!(r.next_frame().unwrap(), Some(b"first".as_slice()));
        let err = r.next_frame().unwrap_err();
        assert!(matches!(err, GumboError::Storage(_)), "{err:?}");
        assert!(err.to_string().contains("claims 4294967295 bytes"), "{err}");
    }

    #[test]
    fn framed_push_writes_what_push_writes() {
        let dir = SpillDir::create("framed").unwrap();
        let blocks: Vec<Vec<u8>> = [0usize, 5, 9000, 20_000]
            .iter()
            .map(|&n| (0..n).map(|i| (i * 7) as u8).collect())
            .collect();
        let write = |seq: u64, framed: bool| {
            let path = dir.run_path(0, seq);
            let mut w = RunWriter::create(&path).unwrap();
            for block in &blocks {
                if framed {
                    let mut frame = vec![0xAA; RunWriter::HEADER];
                    frame.extend_from_slice(block);
                    w.push_framed(&mut frame).unwrap();
                } else {
                    w.push(block).unwrap();
                }
            }
            (w.finish().unwrap(), fs::read(&path).unwrap())
        };
        assert_eq!(write(0, true), write(1, false));
    }

    #[test]
    fn a_run_of_another_length_or_frame_count_is_refused() {
        let dir = SpillDir::create("expect").unwrap();
        let path = dir.run_path(0, 0);
        let mut w = RunWriter::create(&path).unwrap();
        for block in [b"first".as_slice(), b"second", b"third"] {
            w.push(block).unwrap();
        }
        let (frames, bytes) = w.finish().unwrap();
        let read_all = |frames: u64, bytes: u64| -> Result<usize> {
            let mut r = RunReader::open_expecting(&path, frames, bytes)?;
            let mut n = 0;
            while r.next_frame()?.is_some() {
                n += 1;
            }
            Ok(n)
        };
        assert_eq!(read_all(frames, bytes).unwrap(), 3);
        // Cut after the second frame: well-formed frames, one short.
        let whole = fs::read(&path).unwrap();
        fs::write(&path, &whole[..2 * 12 + 5 + 6]).unwrap();
        assert!(
            RunReader::open(&path).is_ok(),
            "a plain reader sees no fault"
        );
        let err = read_all(frames, bytes).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // The length matches but the writer reported another frame count.
        fs::write(&path, &whole).unwrap();
        let err = read_all(frames + 1, bytes).unwrap_err();
        assert!(matches!(err, GumboError::Storage(_)), "{err:?}");
        assert!(err.to_string().contains("ended after 3 frames"), "{err}");
    }

    #[test]
    fn empty_file_reads_as_no_frames() {
        let dir = SpillDir::create("empty").unwrap();
        let path = dir.run_path(0, 0);
        let w = RunWriter::create(&path).unwrap();
        assert_eq!(w.finish().unwrap(), (0, 0));
        let mut r = RunReader::open(&path).unwrap();
        assert!(r.next_frame().unwrap().is_none());
    }
}
