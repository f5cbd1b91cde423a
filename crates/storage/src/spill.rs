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
//! * [`RunWriter`] / [`RunReader`] — length-prefixed binary frames,
//!   buffered in both directions. Frames are opaque bytes here; the
//!   encodings (the shuffle's columnar batch frames, the durable DFS's
//!   tuple segments) live next to those types in `gumbo-mr`,
//!   `gumbo-common` and [`crate::file_dfs`].
//! * [`FrameFormat`] — every frame is stored as
//!   `[len u32][format u8][block]`, the format byte naming both the
//!   payload kind (pair-encoded vs columnar batch) and whether the block
//!   is raw or RLE-compressed. Readers reject unknown format bytes and
//!   frames of the wrong kind instead of guessing, so future formats are
//!   additive, never a breaking re-interpretation of old files.
//! * [`Compression`] — an optional per-frame RLE block codec. The
//!   encodings store integer values as 8-byte little-endian words, so
//!   real data carries long zero runs. [`crate::file_dfs`] segments are
//!   written with RLE; shuffle spill runs are always raw, because on the
//!   budgeted shuffle RLE cost more CPU than the disk bytes it saved.
//!   The writer picks raw or RLE per frame, whichever is smaller, so
//!   incompressible frames cost only the format byte, never an
//!   expansion.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
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

/// The block codec a [`RunWriter`] *may* apply to frames. Readers need
/// not agree up front: each frame's [`FrameFormat`] byte records what
/// was actually stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Compression {
    /// Frames stored verbatim.
    #[default]
    None,
    /// Frames stored byte-level RLE-encoded whenever that is smaller
    /// than the raw payload — per frame, whichever wins.
    Rle,
}

/// The per-frame format byte: payload kind × block codec.
///
/// Every run-file frame is `[len u32][format u8][block]` with
/// `len = 1 + block.len()`. The format byte is authoritative — a reader
/// rejects frames whose kind it did not expect and format bytes it does
/// not know, so corrupt or future-format files surface as errors rather
/// than silently wrong data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameFormat {
    /// A pair-encoded frame, raw block.
    Raw = 0,
    /// A pair-encoded frame, byte-level RLE block.
    Rle = 1,
    /// A columnar batch frame, raw block.
    Columnar = 2,
    /// A columnar batch frame, byte-level RLE block.
    ColumnarRle = 3,
}

impl FrameFormat {
    /// Decode a format byte; unknown values are an error, not a guess.
    pub fn from_byte(b: u8) -> Result<FrameFormat> {
        match b {
            0 => Ok(FrameFormat::Raw),
            1 => Ok(FrameFormat::Rle),
            2 => Ok(FrameFormat::Columnar),
            3 => Ok(FrameFormat::ColumnarRle),
            other => Err(GumboError::Storage(format!(
                "unknown spill frame format {other}"
            ))),
        }
    }
}

/// Byte-level run-length encoding: a sequence of `(count, byte)` pairs
/// with `1 ≤ count ≤ 255`. Worst case doubles the data (no run longer
/// than one), which is why the writer stores the raw payload instead
/// whenever RLE does not win.
fn rle_encode_into(data: &[u8], out: &mut Vec<u8>) {
    out.clear();
    let mut i = 0;
    while i < data.len() {
        let byte = data[i];
        let mut run = 1usize;
        while run < 255 && i + run < data.len() && data[i + run] == byte {
            run += 1;
        }
        out.push(run as u8);
        out.push(byte);
        i += run;
    }
}

#[cfg(test)]
fn rle_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    rle_encode_into(data, &mut out);
    out
}

/// Inverse of [`rle_encode`]. Rejects malformed input (odd length, zero
/// run counts) instead of guessing — a corrupt run must surface as an
/// error, never as silently different data. Shared with the durable-DFS
/// segment reader (`crate::file_dfs`), which random-accesses frames that
/// a [`RunWriter`] stored.
pub(crate) fn rle_decode(data: &[u8]) -> Result<Vec<u8>> {
    if data.len() % 2 != 0 {
        return Err(GumboError::Storage(
            "malformed RLE spill block (odd length)".into(),
        ));
    }
    let mut out = Vec::with_capacity(data.len());
    for pair in data.chunks_exact(2) {
        let (count, byte) = (pair[0], pair[1]);
        if count == 0 {
            return Err(GumboError::Storage(
                "malformed RLE spill block (zero-length run)".into(),
            ));
        }
        out.extend(std::iter::repeat_n(byte, count as usize));
    }
    Ok(out)
}

/// Buffered writer of length-prefixed, format-tagged binary frames.
pub struct RunWriter {
    writer: BufWriter<File>,
    compression: Compression,
    frames: u64,
    bytes: u64,
    scratch: Vec<u8>,
}

impl RunWriter {
    /// Create (truncating) an uncompressed run file.
    pub fn create(path: &Path) -> Result<RunWriter> {
        RunWriter::create_with(path, Compression::None)
    }

    /// Create (truncating) a run file with an explicit block codec.
    pub fn create_with(path: &Path, compression: Compression) -> Result<RunWriter> {
        let file = File::create(path).map_err(|e| storage_err("creating spill run", e))?;
        Ok(RunWriter {
            writer: BufWriter::new(file),
            compression,
            frames: 0,
            bytes: 0,
            scratch: Vec::new(),
        })
    }

    /// Append one pair-encoded frame ([`FrameFormat::Raw`] /
    /// [`FrameFormat::Rle`]).
    pub fn push(&mut self, frame: &[u8]) -> Result<()> {
        self.push_tagged(frame, FrameFormat::Raw, FrameFormat::Rle)
    }

    /// Append one columnar batch frame ([`FrameFormat::Columnar`] /
    /// [`FrameFormat::ColumnarRle`]).
    pub fn push_columnar(&mut self, frame: &[u8]) -> Result<()> {
        self.push_tagged(frame, FrameFormat::Columnar, FrameFormat::ColumnarRle)
    }

    fn push_tagged(&mut self, frame: &[u8], raw: FrameFormat, rle: FrameFormat) -> Result<()> {
        let (block, format): (&[u8], FrameFormat) = match self.compression {
            Compression::None => (frame, raw),
            Compression::Rle => {
                rle_encode_into(frame, &mut self.scratch);
                if self.scratch.len() < frame.len() {
                    (&self.scratch, rle)
                } else {
                    (frame, raw)
                }
            }
        };
        let stored = block.len() + 1;
        let len = u32::try_from(stored)
            .map_err(|_| GumboError::Storage("spill frame exceeds 4 GiB".into()))?;
        self.writer
            .write_all(&len.to_le_bytes())
            .and_then(|()| self.writer.write_all(&[format as u8]))
            .and_then(|()| self.writer.write_all(block))
            .map_err(|e| storage_err("writing spill run", e))?;
        self.frames += 1;
        self.bytes += 4 + stored as u64;
        Ok(())
    }

    /// Flush and close, returning `(frames, file bytes)` written.
    pub fn finish(mut self) -> Result<(u64, u64)> {
        self.writer
            .flush()
            .map_err(|e| storage_err("flushing spill run", e))?;
        Ok((self.frames, self.bytes))
    }
}

/// Buffered reader of length-prefixed, format-tagged binary frames.
pub struct RunReader {
    reader: BufReader<File>,
    /// Bytes of the file not yet consumed (its length at open, minus every
    /// frame read since): the most a length prefix can honestly claim.
    left: u64,
}

impl RunReader {
    /// Open a run file for sequential reading. No codec needs to be
    /// declared: each frame's format byte says how it was stored.
    pub fn open(path: &Path) -> Result<RunReader> {
        let file = File::open(path).map_err(|e| storage_err("opening spill run", e))?;
        let left = file
            .metadata()
            .map_err(|e| storage_err("statting spill run", e))?
            .len();
        Ok(RunReader {
            reader: BufReader::new(file),
            left,
        })
    }

    /// Read the next pair-encoded frame, or `None` at a clean end of
    /// file. A columnar frame here means the file is a shuffle run, not
    /// a pair-encoded segment — an error, never a misparse.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        match self.next_tagged()? {
            None => Ok(None),
            Some((FrameFormat::Raw, block)) => Ok(Some(block)),
            Some((FrameFormat::Rle, block)) => Ok(Some(rle_decode(&block)?)),
            Some((f @ (FrameFormat::Columnar | FrameFormat::ColumnarRle), _)) => {
                Err(GumboError::Storage(format!(
                    "columnar spill frame ({f:?}) in a pair-format read"
                )))
            }
        }
    }

    /// Read the next columnar batch frame, or `None` at a clean end of
    /// file. Pair-encoded frames are rejected symmetrically to
    /// [`next_frame`](Self::next_frame).
    pub fn next_columnar_frame(&mut self) -> Result<Option<Vec<u8>>> {
        match self.next_tagged()? {
            None => Ok(None),
            Some((FrameFormat::Columnar, block)) => Ok(Some(block)),
            Some((FrameFormat::ColumnarRle, block)) => Ok(Some(rle_decode(&block)?)),
            Some((f @ (FrameFormat::Raw | FrameFormat::Rle), _)) => Err(GumboError::Storage(
                format!("pair-encoded spill frame ({f:?}) in a columnar read"),
            )),
        }
    }

    /// Read the next `(format, block)`, or `None` at a clean end of file.
    ///
    /// A *torn* length prefix (EOF after 1–3 bytes), a missing format
    /// byte, and a truncated block are all errors, not ends of file:
    /// silently ending a truncated run early would make the shuffle merge
    /// drop data and return a wrong answer with exit code 0.
    fn next_tagged(&mut self) -> Result<Option<(FrameFormat, Vec<u8>)>> {
        let mut len = [0u8; 4];
        let mut got = 0;
        while got < len.len() {
            match self.reader.read(&mut len[got..]) {
                Ok(0) if got == 0 => return Ok(None),
                Ok(0) => {
                    return Err(GumboError::Storage(
                        "truncated spill frame length (torn run file)".into(),
                    ))
                }
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(storage_err("reading spill frame length", e)),
            }
        }
        let stored = u64::from(u32::from_le_bytes(len));
        if stored == 0 {
            return Err(GumboError::Storage(
                "empty spill frame (missing format byte)".into(),
            ));
        }
        // Never size an allocation from an on-disk length the file cannot
        // back: one flipped bit would ask for up to 4 GiB, zeroed.
        self.left = self.left.saturating_sub(4);
        if stored > self.left {
            return Err(GumboError::Storage(format!(
                "spill frame claims {stored} bytes, {} left (torn or corrupt run file)",
                self.left
            )));
        }
        self.left -= stored;
        // The format byte goes to a local and the block straight into its
        // own buffer: one allocation, no byte moved twice.
        let mut format = [0u8; 1];
        let mut block = vec![0u8; stored as usize - 1];
        self.reader
            .read_exact(&mut format)
            .and_then(|()| self.reader.read_exact(&mut block))
            .map_err(|e| storage_err("reading spill frame (torn run file)", e))?;
        Ok(Some((FrameFormat::from_byte(format[0])?, block)))
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
        // 4-byte length + 1 format byte + payload, per frame.
        assert_eq!(
            bytes,
            frames.iter().map(|f| 4 + 1 + f.len() as u64).sum::<u64>()
        );

        let mut r = RunReader::open(&path).unwrap();
        for f in &frames {
            assert_eq!(r.next_frame().unwrap().as_deref(), Some(f.as_slice()));
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
        assert_eq!(
            r.next_frame().unwrap().as_deref(),
            Some(b"intact".as_slice())
        );
        let err = r.next_frame().unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
    }

    #[test]
    fn rle_round_trips_arbitrary_blocks() {
        let blocks: Vec<Vec<u8>> = vec![
            vec![],
            vec![7],
            vec![0; 1000],                            // one long run
            (0..=255u8).collect(),                    // no runs at all
            vec![1, 1, 1, 2, 2, 0, 0, 0, 0, 9],       // mixed
            std::iter::repeat_n(42u8, 300).collect(), // run > 255
        ];
        for b in &blocks {
            assert_eq!(&rle_decode(&rle_encode(b)).unwrap(), b);
        }
        assert!(rle_decode(&[1]).is_err(), "odd length rejected");
        assert!(rle_decode(&[0, 5]).is_err(), "zero run rejected");
    }

    #[test]
    fn compressed_frames_round_trip_and_shrink_zero_heavy_data() {
        let dir = SpillDir::create("rle").unwrap();
        // Zero-heavy frames like the 8-byte-LE integer layout produces.
        let frames: Vec<Vec<u8>> = (0..50i64)
            .map(|i| {
                let mut f = Vec::new();
                f.extend_from_slice(&1u32.to_le_bytes());
                f.extend_from_slice(&i.to_le_bytes());
                f.extend_from_slice(&[0u8; 32]);
                f
            })
            .collect();
        let raw_total: u64 = frames.iter().map(|f| 4 + 1 + f.len() as u64).sum();

        let plain = dir.run_path(0, 0);
        let mut w = RunWriter::create_with(&plain, Compression::None).unwrap();
        for f in &frames {
            w.push(f).unwrap();
        }
        let (_, plain_bytes) = w.finish().unwrap();
        assert_eq!(plain_bytes, raw_total);

        let packed = dir.run_path(0, 1);
        let mut w = RunWriter::create_with(&packed, Compression::Rle).unwrap();
        for f in &frames {
            w.push(f).unwrap();
        }
        let (n, packed_bytes) = w.finish().unwrap();
        assert_eq!(n, 50);
        assert!(
            packed_bytes < plain_bytes / 2,
            "RLE should at least halve zero-heavy runs: {packed_bytes} vs {plain_bytes}"
        );

        let mut r = RunReader::open(&packed).unwrap();
        for f in &frames {
            assert_eq!(r.next_frame().unwrap().as_deref(), Some(f.as_slice()));
        }
        assert!(r.next_frame().unwrap().is_none());
    }

    #[test]
    fn incompressible_frames_survive_rle_mode() {
        // A frame with no runs: the writer must fall back to the raw
        // block (one tag byte of overhead) and the reader must undo it.
        let dir = SpillDir::create("rle-raw").unwrap();
        let frame: Vec<u8> = (0..=255u8).collect();
        let path = dir.run_path(0, 0);
        let mut w = RunWriter::create_with(&path, Compression::Rle).unwrap();
        w.push(&frame).unwrap();
        let (_, bytes) = w.finish().unwrap();
        assert_eq!(bytes, 4 + 1 + frame.len() as u64, "raw + format byte only");
        let mut r = RunReader::open(&path).unwrap();
        assert_eq!(r.next_frame().unwrap().as_deref(), Some(frame.as_slice()));
    }

    #[test]
    fn unknown_format_byte_is_an_error() {
        let dir = SpillDir::create("bad-format").unwrap();
        let path = dir.run_path(0, 0);
        // Hand-craft a frame with an invalid format byte (9).
        fs::write(&path, [2u8, 0, 0, 0, 9, 9]).unwrap();
        let mut r = RunReader::open(&path).unwrap();
        let err = r.next_frame().unwrap_err();
        assert!(
            err.to_string().contains("unknown spill frame format"),
            "{err}"
        );
    }

    #[test]
    fn columnar_frames_round_trip_in_both_codecs() {
        let dir = SpillDir::create("columnar").unwrap();
        let frames: Vec<Vec<u8>> = (0..20i64)
            .map(|i| {
                let mut f = i.to_le_bytes().to_vec();
                f.extend_from_slice(&[0u8; 24]); // zero-heavy, like int columns
                f
            })
            .collect();
        for compression in [Compression::None, Compression::Rle] {
            let path = dir.run_path(0, u64::from(compression == Compression::Rle));
            let mut w = RunWriter::create_with(&path, compression).unwrap();
            for f in &frames {
                w.push_columnar(f).unwrap();
            }
            let (n, _) = w.finish().unwrap();
            assert_eq!(n, 20);
            let mut r = RunReader::open(&path).unwrap();
            for f in &frames {
                assert_eq!(r.next_columnar_frame().unwrap().as_deref(), Some(&f[..]));
            }
            assert!(r.next_columnar_frame().unwrap().is_none());
        }
    }

    #[test]
    fn frame_kind_mismatch_is_rejected_both_ways() {
        let dir = SpillDir::create("kind-mismatch").unwrap();
        let pair_run = dir.run_path(0, 0);
        let mut w = RunWriter::create(&pair_run).unwrap();
        w.push(b"pair frame").unwrap();
        w.finish().unwrap();
        let err = RunReader::open(&pair_run)
            .unwrap()
            .next_columnar_frame()
            .unwrap_err();
        assert!(err.to_string().contains("pair-encoded"), "{err}");

        let col_run = dir.run_path(0, 1);
        let mut w = RunWriter::create(&col_run).unwrap();
        w.push_columnar(b"columnar frame").unwrap();
        w.finish().unwrap();
        let err = RunReader::open(&col_run).unwrap().next_frame().unwrap_err();
        assert!(err.to_string().contains("columnar"), "{err}");
    }

    #[test]
    fn torn_frame_header_and_body_are_errors() {
        let dir = SpillDir::create("torn-header").unwrap();
        // A full length prefix claiming 5 bytes, but only the format byte
        // present: the body read must fail loudly.
        let torn_body = dir.run_path(0, 0);
        fs::write(&torn_body, [5u8, 0, 0, 0, 0]).unwrap();
        let err = RunReader::open(&torn_body)
            .unwrap()
            .next_frame()
            .unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");

        // A zero-length frame has no room for its format byte.
        let headless = dir.run_path(0, 1);
        fs::write(&headless, [0u8, 0, 0, 0]).unwrap();
        let err = RunReader::open(&headless)
            .unwrap()
            .next_frame()
            .unwrap_err();
        assert!(err.to_string().contains("missing format byte"), "{err}");
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
        let second = 4 + 1 + b"first".len();
        bytes[second..second + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&path, bytes).unwrap();

        let mut r = RunReader::open(&path).unwrap();
        assert_eq!(
            r.next_frame().unwrap().as_deref(),
            Some(b"first".as_slice())
        );
        let err = r.next_frame().unwrap_err();
        assert!(matches!(err, GumboError::Storage(_)), "{err:?}");
        assert!(err.to_string().contains("claims 4294967295 bytes"), "{err}");
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
