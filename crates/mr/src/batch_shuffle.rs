//! The shuffle's data path: columnar batches from the mappers through
//! budget-charged, spilling partition buffers to the grouped stream the
//! reducers consume. No row is copied between the map task that writes it
//! and the reducer that reads it, unless it spills.
//!
//! * [`PairBatch`] — a columnar batch of `(key, message)` pairs: keys and
//!   payload tuples live in per-arity [`TupleBatch`] arenas (contiguous
//!   `i64` cells plus a string dictionary), each message's fixed-width
//!   fields in one packed slot, and every key's 64-bit hash
//!   ([`hash_view`], computed once when the map task pushes the pair) in
//!   one `u64` column that travels with the row in memory. Spill frames
//!   do not store it: a decoded frame re-hashes its keys, which measured
//!   as fast as reading stored hashes and keeps the frames 8 bytes a row
//!   smaller. Pushing a pair appends plain integers — no per-pair heap
//!   blocks. A key of at most two integer cells read from a row with no
//!   string (every MSJ key and every EVAL key of integer relations) is
//!   copied from the row's cells and hashed from them ([`hash_ints`],
//!   equal to [`hash_view`]), with no view of the stored key and no
//!   per-cell tag; every other key takes the generic path, and both
//!   store identical cells, hashes and bytes. A map task's batch is
//!   created with room for the pairs every tuple of its input is certain
//!   to emit ([`PairBatch::with_capacity`]), so its columns need not grow
//!   while the task runs;
//! * [`BatchPartition`] — one reducer partition's buffer: 8-byte
//!   `(task, row)` handles into the job's map outputs, which stay resident
//!   until every reducer of the job has finished. It charges the shared
//!   [`MemoryBudget`] the bytes of the rows it references once per
//!   frame-sized chunk; when the buffer crosses its share of the budget
//!   (`limit / reducers`) or the global budget is exhausted, it sorts the
//!   handles on one fixed-width `(hash prefix, position)` word per row (no
//!   comparator reads a cell) and writes the rows they reference as a run
//!   of checksummed **columnar frames** ([`gumbo_storage::RunWriter`]) of
//!   up to [`ROWS_PER_FRAME`] rows under the job's [`ShuffleSpill`] — so a
//!   flush frees handles, while the map outputs stay where they are. Each
//!   frame is gathered column by column straight from the rows where they
//!   sit into one reused frame buffer, header room first, and goes to the
//!   file in one write; no row is copied into a batch of its own. A
//!   frame's bytes are a function of its rows alone
//!   ([`PairBatch::encode_into`] of a batch holding them writes the same
//!   bytes): a column carries type tags only if the frame puts a string
//!   in it, and key locators appear only if the frame mixes key arities.
//!   The partition records each run's frame count and file bytes, and the
//!   merge refuses a run file that no longer matches them;
//! * [`BatchGroupStream`] — the k-way merge of the spill runs' decoded
//!   frames plus the sorted in-memory tail of handles. Each run source
//!   reads its frames into one reused buffer, and decodes each into the
//!   arenas of a frame the merge has moved past
//!   ([`PairBatch::decode_into`]), so the merge allocates per source, not
//!   per frame. One min-scan per key group reads each source's head hash
//!   and falls back to [`TupleView`] order only on equal hashes; each
//!   holding source's whole run of the key is drained at once, a run
//!   frame finding its end from the hash column. Each group goes to the
//!   reducer as a [`Group`]: the key as a [`TupleView`] and the values as
//!   [`MsgView`]s read in place — no key `Tuple` and no `Message` is
//!   built.
//!
//! **The contract.** Reducers see keys in ascending `(hash, Tuple)` order
//! — the key hash first, `Tuple` order only between keys whose hashes
//! collide — and, within a key, values in global emission order: the
//! grouping a `BTreeMap<(u64, Tuple), Vec<Message>>` fold of the pair
//! sequence produces, which is the oracle the tests compare against. No
//! reducer depends on the key order: every job output is sorted and
//! deduplicated by its reduce task and merged at commit. The contract
//! holds whatever the budget and whenever the flushes happen: each run is
//! a contiguous slice of the partition's emission-order sequence sorted
//! with equal keys in row order, and the merge drains earlier runs before
//! later ones on equal keys. A row's bytes are `key.estimated_bytes() +
//! message.estimated_bytes()` computed from the columnar form, so
//! `reducer_bytes` and spill volumes use the paper's accounting.

use std::cmp::Ordering;
use std::ops::Range;
use std::path::Path;

use gumbo_common::batch::{read_bytes, read_u32};
use gumbo_common::value::INT_VALUE_BYTES;
use gumbo_common::{GumboError, Result, StringDict, Tuple, TupleBatch, TupleView, Value, ValueRef};
use gumbo_storage::{RunReader, RunWriter};

use crate::hash::{hash_ints, hash_view};
use crate::message::{Message, MsgRef, MsgView, Payload, PayloadView};
use crate::shuffle::{MemoryBudget, Run, ShuffleSpill, SpillStats, MERGE_FANIN, UNLIMITED_GRANULE};

/// Maximum rows per spilled columnar frame: large enough to amortize the
/// frame header and the dictionary, small enough that a reading merge
/// holds only a bounded window of each run in memory.
pub const ROWS_PER_FRAME: usize = 512;

#[cfg(test)]
thread_local! {
    static FORCED_KEY_HASH: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// The hash a key is routed and ordered by: [`hash_view`], equal to
/// [`crate::hash::hash_tuple`] of the owned key. Tests can force every key
/// of their thread onto one hash ([`with_forced_key_hash`]) so that any
/// two distinct keys collide.
fn key_hash(key: TupleView<'_>) -> u64 {
    forced_key_hash().unwrap_or_else(|| hash_view(key))
}

/// The hash every key is forced onto, in tests that force one.
#[inline]
fn forced_key_hash() -> Option<u64> {
    #[cfg(test)]
    if let Some(forced) = FORCED_KEY_HASH.with(std::cell::Cell::get) {
        return Some(forced);
    }
    None
}

/// Run `f` with every key hash this thread computes forced to `hash`:
/// sort, flush, merge passes and group boundaries then all take the
/// collision path.
#[cfg(test)]
pub(crate) fn with_forced_key_hash<R>(hash: u64, f: impl FnOnce() -> R) -> R {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            FORCED_KEY_HASH.with(|forced| forced.set(None));
        }
    }
    FORCED_KEY_HASH.with(|forced| forced.set(Some(hash)));
    let _reset = Reset;
    f()
}

// ---------------------------------------------------------------------------
// Tuple store: mixed-arity tuples over per-arity columnar arenas
// ---------------------------------------------------------------------------

/// Where one stored tuple lives: which per-arity batch, which row.
#[derive(Debug, Clone, Copy)]
struct Loc {
    arity: u32,
    row: u32,
}

/// Columnar storage for a sequence of tuples of *mixed* arity: one
/// [`TupleBatch`] per arity (the batch index is the arity), so slot `i`
/// names the `i`-th pushed tuple. While every tuple has one arity — the
/// usual case — slot `i` is row `i` of that arity's batch; per-tuple
/// locators are stored only once a second arity arrives (as
/// [`TupleBatch`] stores cell tags only once a string arrives). The 8
/// bytes a row this saves on [`PairBatch`] keys pay for its hash column,
/// which the map batches hold through the whole reduce phase.
#[derive(Debug, Default)]
pub struct TupleStore {
    by_arity: Vec<TupleBatch>,
    /// Per-tuple locators; `None` while every tuple has arity `arity`.
    locs: Option<Vec<Loc>>,
    arity: u32,
    len: u32,
}

impl TupleStore {
    /// Number of tuples stored.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no tuple has been stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn loc(&self, slot: u32) -> Loc {
        match &self.locs {
            Some(locs) => locs[slot as usize],
            None => {
                assert!(slot < self.len, "slot out of bounds");
                Loc {
                    arity: self.arity,
                    row: slot,
                }
            }
        }
    }

    /// Append one tuple of arity `arity` — `push` adds its row to that
    /// arity's batch — and return its slot.
    #[inline(always)]
    fn push_with(&mut self, arity: usize, push: impl FnOnce(&mut TupleBatch)) -> u32 {
        if self.by_arity.len() <= arity {
            self.add_arities(arity);
        }
        let batch = &mut self.by_arity[arity];
        let loc = Loc {
            arity: arity as u32,
            row: u32::try_from(batch.len()).expect("batch under 2^32 rows"),
        };
        push(batch);
        let slot = self.len;
        match &self.locs {
            None if slot == 0 || loc.arity == self.arity => {
                debug_assert_eq!(loc.row, slot, "one arity: slot = row");
                self.arity = loc.arity;
            }
            _ => self.push_loc(loc),
        }
        self.len = slot.checked_add(1).expect("store under 2^32 tuples");
        slot
    }

    /// Add empty batches up to arity `arity`.
    #[cold]
    fn add_arities(&mut self, arity: usize) {
        while self.by_arity.len() <= arity {
            self.by_arity.push(TupleBatch::new(self.by_arity.len()));
        }
    }

    /// Record the locator of the tuple being pushed. The first tuple of a
    /// second arity first writes the locators of every tuple before it.
    #[inline(never)]
    fn push_loc(&mut self, loc: Loc) {
        let (arity, slot) = (self.arity, self.len);
        (self
            .locs
            .get_or_insert_with(|| (0..slot).map(|row| Loc { arity, row }).collect()))
        .push(loc);
    }

    /// Append an owned tuple; returns its slot.
    pub fn push_tuple(&mut self, t: &Tuple) -> u32 {
        self.push_with(t.arity(), |batch| batch.push_tuple(t))
    }

    /// Append the projection of a view onto `positions`, copied cell by
    /// cell; returns its slot.
    pub(crate) fn push_view_projected(&mut self, t: TupleView<'_>, positions: &[usize]) -> u32 {
        self.push_with(positions.len(), |batch| {
            batch.push_view_projected(t, positions)
        })
    }

    /// Append the row a view reads; returns its slot.
    pub(crate) fn push_view(&mut self, t: TupleView<'_>) -> u32 {
        self.push_with(t.arity(), |batch| batch.push_view(t))
    }

    /// Append a row of integers given as its cells.
    #[inline]
    fn push_ints(&mut self, cells: &[i64]) {
        self.push_with(cells.len(), |batch| batch.push_ints(cells));
    }

    /// Make room for `rows` more tuples of arity `arity`.
    fn reserve(&mut self, arity: usize, rows: usize) {
        if self.by_arity.len() <= arity {
            self.add_arities(arity);
        }
        self.by_arity[arity].reserve(rows);
    }

    /// Zero-copy view of slot `slot`.
    #[inline]
    pub fn view(&self, slot: u32) -> TupleView<'_> {
        let loc = self.loc(slot);
        self.by_arity[loc.arity as usize].view(loc.row as usize)
    }

    /// Materialize slot `slot` as an owned [`Tuple`].
    pub fn tuple(&self, slot: u32) -> Tuple {
        let loc = self.loc(slot);
        self.by_arity[loc.arity as usize].tuple(loc.row as usize)
    }

    /// Whether slots `a` and `b` hold equal tuples, on raw cells
    /// ([`TupleBatch::same_row`]); tuples of different arity never are.
    fn same(&self, a: u32, b: u32) -> bool {
        let la = self.loc(a);
        let lb = self.loc(b);
        la.arity == lb.arity
            && self.by_arity[la.arity as usize].same_row(la.row as usize, lb.row as usize)
    }

    /// Whether every stored tuple holds integers only and at most `max`
    /// fields. A string anywhere in a batch leaves its dictionary
    /// non-empty, so this reads no row.
    fn ints_up_to(&self, max: usize) -> bool {
        (self.by_arity.iter()).all(|b| b.is_empty() || (b.arity() <= max && b.dict().is_empty()))
    }

    /// Append every stored tuple's [`key_hash`], in slot order. Integer
    /// tuples of one arity up to 2 — every MSJ and EVAL key of integer
    /// relations — hash straight from the cell columns ([`hash_ints`]).
    fn hash_into(&self, hashes: &mut Vec<u64>) {
        let len = self.len();
        let one_arity = match &self.locs {
            None => self.by_arity.get(self.arity as usize),
            Some(_) => None,
        };
        if let (Some(batch), None) = (one_arity, forced_key_hash()) {
            let column = |c: usize| batch.int_column(c).map(|cells| &cells[..len]);
            match batch.arity() {
                0 => return hashes.resize(len, hash_ints([].into_iter())),
                1 => {
                    if let Some(a) = column(0) {
                        return hashes.extend(a.iter().map(|&x| hash_ints([x].into_iter())));
                    }
                }
                2 => {
                    if let (Some(a), Some(b)) = (column(0), column(1)) {
                        let rows = a.iter().zip(b);
                        return hashes.extend(rows.map(|(&x, &y)| hash_ints([x, y].into_iter())));
                    }
                }
                _ => {}
            }
        }
        hashes.extend((0..len as u32).map(|slot| key_hash(self.view(slot))));
    }

    /// Estimated bytes of slot `slot` (paper layout).
    pub fn bytes(&self, slot: u32) -> u64 {
        let loc = self.loc(slot);
        self.by_arity[loc.arity as usize].row_bytes(loc.row as usize)
    }

    fn clear(&mut self) {
        for batch in &mut self.by_arity {
            batch.clear();
        }
        if let Some(locs) = &mut self.locs {
            locs.clear();
        }
        self.len = 0;
    }

    /// Decode a store written by [`encode_store`] into this one, reusing
    /// its batches' arenas; nothing of the old content survives. Frames
    /// of older builds, which could list an empty batch past the largest
    /// arity or locators for one arity, decode too.
    fn decode_into(&mut self, buf: &[u8], pos: &mut usize) -> Result<()> {
        // Counts come from the frame: every batch reads at least its
        // 12-byte header and a locator is 8 bytes, so a corrupt count runs
        // into "truncated" instead of an absurd allocation.
        let n_batches = read_u32(buf, pos)? as usize;
        self.by_arity.truncate(n_batches);
        for i in 0..n_batches {
            if i == self.by_arity.len() {
                self.by_arity.push(TupleBatch::default());
            }
            self.by_arity[i].decode_into(buf, pos)?;
        }
        let len = read_u32(buf, pos)?;
        let by_arity = &self.by_arity;
        let rows_of = |arity: u32| by_arity.get(arity as usize).map_or(0, TupleBatch::len);
        let out_of_range =
            || GumboError::Storage("corrupt columnar frame: tuple locator out of range".into());
        match read_bytes(buf, pos, 1)?[0] {
            0 => {
                let arity = read_u32(buf, pos)?;
                if len as usize > rows_of(arity) {
                    return Err(out_of_range());
                }
                self.locs = None;
                self.arity = arity;
            }
            1 => {
                let locs = self.locs.get_or_insert_with(Vec::new);
                locs.clear();
                locs.reserve((len as usize).min((buf.len() - *pos) / 8));
                for _ in 0..len {
                    let arity = read_u32(buf, pos)?;
                    let row = read_u32(buf, pos)?;
                    if row as usize >= rows_of(arity) {
                        return Err(out_of_range());
                    }
                    locs.push(Loc { arity, row });
                }
                self.arity = 0;
            }
            other => {
                return Err(GumboError::Storage(format!(
                    "corrupt columnar frame: bad locator flag {other}"
                )))
            }
        }
        self.len = len;
        Ok(())
    }
}

/// One tuple of a frame being gathered: row `row` of the arity-`arity`
/// batch of a [`TupleStore`] — the keys or the payloads, the caller knows
/// which — of the [`PairBatch`] that [`Batches::pair`] resolves `batch` to.
#[derive(Debug, Clone, Copy)]
struct Gathered {
    batch: u32,
    arity: u32,
    row: u32,
}

/// Append the encoding of a [`TupleStore`] holding `rows`, in order, each
/// read where `view` finds it; [`TupleStore::decode_into`] reads it back.
/// `strings: false` promises that no row holds a string. The bytes are a
/// function of the rows alone:
///
/// ```text
/// [batches u32] batches × TupleBatch [len u32]
/// then [0u8] [arity u32]                    if every tuple has that arity
///   or [1u8] len × ([arity u32] [row u32])  if the tuples mix arities
/// ```
///
/// with one batch per arity up to the largest among `rows` — the batch
/// index is the arity — holding that arity's tuples in order, and a
/// locator per tuple only when the arities mix. No rows: `[0u32] [0u32]
/// [0u8] [0u32]`.
fn encode_store<'v>(
    rows: &[Gathered],
    view: impl Fn(Gathered) -> TupleView<'v> + Copy,
    strings: bool,
    scratch: &mut Scratch,
    out: &mut Vec<u8>,
) -> Result<()> {
    let bounds = (rows.iter()).fold(None, |bounds, g| {
        let (lo, hi) = bounds.unwrap_or((g.arity, g.arity));
        Some((g.arity.min(lo), g.arity.max(hi)))
    });
    // The batch count, and the one arity every row has if they share one.
    let (batches, single) = match bounds {
        None => (0, Some(0)),
        Some((lo, hi)) => (hi + 1, (lo == hi).then_some(lo)),
    };
    out.extend_from_slice(&batches.to_le_bytes());
    let dict = &mut scratch.dict;
    for arity in 0..batches {
        let a = arity as usize;
        match single {
            Some(only) if only == arity => {
                let all = rows.iter().map(move |&g| view(g));
                TupleBatch::encode_views_into(a, all, strings, dict, out)?;
            }
            Some(_) => TupleBatch::encode_views_into(a, [].into_iter(), false, dict, out)?,
            None => {
                let of_arity = rows.iter().filter(move |g| g.arity == arity);
                let of_arity = of_arity.map(move |&g| view(g));
                TupleBatch::encode_views_into(a, of_arity, strings, dict, out)?;
            }
        }
    }
    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    if let Some(arity) = single {
        out.push(0);
        out.extend_from_slice(&arity.to_le_bytes());
        return Ok(());
    }
    out.push(1);
    let counts = &mut scratch.counts;
    counts.clear();
    counts.resize(batches as usize, 0);
    for g in rows {
        let row = &mut counts[g.arity as usize];
        out.extend_from_slice(&g.arity.to_le_bytes());
        out.extend_from_slice(&row.to_le_bytes());
        *row += 1;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Message store: one fixed-width slot per message
// ---------------------------------------------------------------------------

const KIND_ASSERT: u8 = 0;
const KIND_REQ_TUPLE: u8 = 1;
const KIND_REQ_REF: u8 = 2;
const KIND_TAG: u8 = 3;
const KIND_GUARD_TUPLE: u8 = 4;

/// One message's fixed-width fields:
///
/// | kind | `small` | `aux` | `wide` |
/// |---|---|---|---|
/// | `Assert` | `cond` | – | – |
/// | `Req`+`Payload::Tuple` | `cond` | payload slot | – |
/// | `Req`+`Payload::Ref` | `cond` | `guard` | `id` |
/// | `Tag` | `rel` | – | – |
/// | `GuardTuple` | `guard` | payload slot | – |
#[derive(Debug, Clone, Copy)]
#[repr(C, packed)]
struct MsgSlot {
    wide: u64,
    small: u32,
    aux: u32,
    kind: u8,
}

/// Storage for [`Message`]s: one [`MsgSlot`] per message, with payload
/// tuples in a [`TupleStore`]. A slot keeps a message's fields together
/// — packed, 17 bytes — because reducers read messages in shuffle order,
/// not in the order the map task wrote them: one slot is one memory
/// access. Spill frames store the fields column by column.
#[derive(Debug, Default)]
struct MsgStore {
    slots: Vec<MsgSlot>,
    tuples: TupleStore,
}

impl MsgStore {
    fn len(&self) -> usize {
        self.slots.len()
    }

    /// Append a message; returns its bytes.
    fn push(&mut self, m: &Message) -> u64 {
        let (kind, small, aux, wide) = match m {
            Message::Assert { cond } => (KIND_ASSERT, *cond, 0, 0),
            Message::Req {
                cond,
                payload: Payload::Tuple(t),
            } => (KIND_REQ_TUPLE, *cond, self.tuples.push_tuple(t), 0),
            Message::Req {
                cond,
                payload: Payload::Ref { guard, id },
            } => (KIND_REQ_REF, *cond, *guard, *id),
            Message::Tag { rel } => (KIND_TAG, *rel, 0, 0),
            Message::GuardTuple { guard, tuple } => {
                (KIND_GUARD_TUPLE, *guard, self.tuples.push_tuple(tuple), 0)
            }
        };
        self.push_slot(MsgSlot {
            wide,
            small,
            aux,
            kind,
        })
    }

    /// Append a message read in place; returns its bytes.
    #[inline]
    fn push_ref(&mut self, m: MsgRef<'_>) -> u64 {
        let (kind, small, aux, wide) = match m {
            MsgRef::Assert { cond } => (KIND_ASSERT, cond, 0, 0),
            MsgRef::Req {
                cond,
                tuple,
                positions,
            } => (
                KIND_REQ_TUPLE,
                cond,
                self.tuples.push_view_projected(tuple, positions),
                0,
            ),
            MsgRef::ReqRef { cond, guard, id } => (KIND_REQ_REF, cond, guard, id),
            MsgRef::Tag { rel } => (KIND_TAG, rel, 0, 0),
            MsgRef::GuardTuple { guard, tuple } => {
                (KIND_GUARD_TUPLE, guard, self.tuples.push_view(tuple), 0)
            }
        };
        self.push_slot(MsgSlot {
            wide,
            small,
            aux,
            kind,
        })
    }

    /// Append `slot`, whose payload is stored; returns the message's
    /// bytes.
    #[inline]
    fn push_slot(&mut self, slot: MsgSlot) -> u64 {
        self.slots.push(slot);
        self.slot_bytes(slot)
    }

    /// Zero-copy view of message `row`: payload tuples are views into
    /// the payload arena.
    #[inline]
    fn view(&self, row: usize) -> MsgView<'_> {
        let slot = self.slots[row];
        match slot.kind {
            KIND_ASSERT => MsgView::Assert { cond: slot.small },
            KIND_REQ_TUPLE => MsgView::Req {
                cond: slot.small,
                payload: PayloadView::Tuple(self.tuples.view(slot.aux)),
            },
            KIND_REQ_REF => MsgView::Req {
                cond: slot.small,
                payload: PayloadView::Ref {
                    guard: slot.aux,
                    id: slot.wide,
                },
            },
            KIND_TAG => MsgView::Tag { rel: slot.small },
            KIND_GUARD_TUPLE => MsgView::GuardTuple {
                guard: slot.small,
                tuple: self.tuples.view(slot.aux),
            },
            other => unreachable!("validated message kind {other}"),
        }
    }

    /// `Message::estimated_bytes` of row `row`, computed columnar.
    #[inline]
    fn bytes(&self, row: usize) -> u64 {
        self.slot_bytes(self.slots[row])
    }

    #[inline]
    fn slot_bytes(&self, slot: MsgSlot) -> u64 {
        match slot.kind {
            KIND_ASSERT | KIND_TAG => 4,
            KIND_REQ_REF => 4 + 10,
            // Req+Tuple and GuardTuple: header plus the payload tuple.
            _ => 4 + self.tuples.bytes(slot.aux),
        }
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.tuples.clear();
    }

    /// Decode a message store into this one, reusing its arenas. Layout:
    /// the [`encode_slots`] columns, then the payload [`TupleStore`]
    /// ([`encode_store`]).
    fn decode_into(&mut self, buf: &[u8], pos: &mut usize) -> Result<()> {
        let rows = read_u32(buf, pos)? as usize;
        let kinds = read_bytes(buf, pos, rows)?;
        let small = read_bytes(buf, pos, rows.saturating_mul(4))?;
        let aux = read_bytes(buf, pos, rows.saturating_mul(4))?;
        let word = |w: &[u8]| u32::from_le_bytes(w.try_into().expect("4 bytes"));
        self.slots.clear();
        self.slots.extend(
            (kinds
                .iter()
                .zip(small.chunks_exact(4))
                .zip(aux.chunks_exact(4)))
            .map(|((&kind, small), aux)| MsgSlot {
                wide: 0,
                small: word(small),
                aux: word(aux),
                kind,
            }),
        );
        match read_bytes(buf, pos, 1)?[0] {
            0 => {}
            1 => {
                let wide = read_bytes(buf, pos, rows.saturating_mul(8))?;
                for (slot, w) in self.slots.iter_mut().zip(wide.chunks_exact(8)) {
                    slot.wide = u64::from_le_bytes(w.try_into().expect("8 bytes"));
                }
            }
            other => {
                return Err(GumboError::Storage(format!(
                    "corrupt columnar frame: bad wide-column flag {other}"
                )))
            }
        }
        self.tuples.decode_into(buf, pos)?;
        for slot in &self.slots {
            let payload_ok = match slot.kind {
                KIND_ASSERT | KIND_REQ_REF | KIND_TAG => true,
                KIND_REQ_TUPLE | KIND_GUARD_TUPLE => (slot.aux as usize) < self.tuples.len(),
                other => {
                    return Err(GumboError::Storage(format!(
                        "corrupt columnar frame: unknown message kind {other}"
                    )))
                }
            };
            if !payload_ok {
                return Err(GumboError::Storage(
                    "corrupt columnar frame: payload slot out of range".into(),
                ));
            }
        }
        Ok(())
    }
}

/// Append the fixed-width fields of `slots`, column by column: `[rows
/// u32] rows × [kind u8] rows × [small u32] rows × [aux u32]`, then `[0u8]`
/// when every `wide` is zero or `[1u8] rows × [wide u64]`.
fn encode_slots(slots: &[MsgSlot], out: &mut Vec<u8>) {
    /// Append one `N`-byte field of every slot, the column sized first.
    fn column<const N: usize>(
        out: &mut Vec<u8>,
        slots: &[MsgSlot],
        field: impl Fn(MsgSlot) -> [u8; N],
    ) {
        let start = out.len();
        out.resize(start + N * slots.len(), 0);
        for (cell, &slot) in out[start..].chunks_exact_mut(N).zip(slots) {
            cell.copy_from_slice(&field(slot));
        }
    }
    out.extend_from_slice(&(slots.len() as u32).to_le_bytes());
    column(out, slots, |slot| [slot.kind]);
    column(out, slots, |slot| slot.small.to_le_bytes());
    column(out, slots, |slot| slot.aux.to_le_bytes());
    let has_wide = slots.iter().any(|&MsgSlot { wide, .. }| wide != 0);
    out.push(u8::from(has_wide));
    if has_wide {
        column(out, slots, |slot| slot.wide.to_le_bytes());
    }
}

// ---------------------------------------------------------------------------
// Pair batch
// ---------------------------------------------------------------------------

/// A key of at most two integer cells, copied out of its source row:
/// every MSJ key and every EVAL key of integer relations. [`PairBatch`]
/// stores it and hashes it ([`hash_ints`]) from the cells, with no view of
/// the stored row and no per-cell tag.
#[derive(Clone, Copy)]
struct IntKey {
    cells: [i64; 2],
    len: usize,
}

impl IntKey {
    /// `tuple.project(positions)` as an integer key, when it has at most
    /// two cells and `tuple`'s batch holds no string.
    #[inline]
    fn project(tuple: TupleView<'_>, positions: &[usize]) -> Option<IntKey> {
        if positions.len() > 2 {
            return None;
        }
        let cell = tuple.int_cells()?;
        let mut cells = [0; 2];
        for (out, &p) in cells.iter_mut().zip(positions) {
            *out = cell(p);
        }
        let len = positions.len();
        Some(IntKey { cells, len })
    }
}

/// A columnar batch of `(key, message)` pairs in emission order.
#[derive(Debug, Default)]
pub struct PairBatch {
    keys: TupleStore,
    /// Every row's key hash ([`key_hash`]), in row order: computed when
    /// the pair is pushed (or its spilled frame decoded) and copied with
    /// the row otherwise. It routes the row to its reducer, drives the
    /// §5.1 packing count and orders the shuffle.
    hashes: Vec<u64>,
    msgs: MsgStore,
    bytes: u64,
}

impl PairBatch {
    /// An empty batch.
    pub fn new() -> PairBatch {
        PairBatch::default()
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no pair has been pushed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Estimated bytes over all rows pushed: exactly
    /// `Σ key.estimated_bytes() + message.estimated_bytes()`. A batch
    /// [`decode`](Self::decode)d from a spill frame pushed none and
    /// reads 0.
    pub fn estimated_bytes(&self) -> u64 {
        self.bytes
    }

    /// Append one pair, decomposing it into the columnar arenas and
    /// hashing its key.
    pub fn push_pair(&mut self, key: &Tuple, msg: &Message) {
        let slot = self.keys.push_tuple(key);
        self.push_msg(slot, |msgs| msgs.push(msg));
    }

    /// An empty batch with room for the pairs a map task over `tuples`
    /// input tuples is certain to emit: `key_arities` holds the key arity
    /// of each pair every tuple emits ([`Mapper::certain_pairs`]). The
    /// batch is the one [`new`](Self::new) returns; pushing those pairs
    /// allocates no key cell, hash or message slot.
    ///
    /// [`Mapper::certain_pairs`]: crate::Mapper::certain_pairs
    pub fn with_capacity(tuples: usize, key_arities: &[usize]) -> PairBatch {
        let mut batch = PairBatch::new();
        if tuples == 0 || key_arities.is_empty() {
            return batch;
        }
        let pairs = tuples * key_arities.len();
        batch.hashes.reserve(pairs);
        batch.msgs.slots.reserve(pairs);
        for (i, &arity) in key_arities.iter().enumerate() {
            if !key_arities[..i].contains(&arity) {
                let per_tuple = key_arities.iter().filter(|&&a| a == arity).count();
                batch.keys.reserve(arity, tuples * per_tuple);
            }
        }
        batch
    }

    /// Append the pair `(key, msg)` for a key given as borrowed values
    /// (an owned tuple's values, or a stack array of integers).
    #[inline]
    pub fn push_values(&mut self, key: &[Value], msg: MsgRef<'_>) {
        match *key {
            [] => self.push_int_key(
                IntKey {
                    cells: [0, 0],
                    len: 0,
                },
                msg,
            ),
            [Value::Int(a)] => self.push_int_key(
                IntKey {
                    cells: [a, 0],
                    len: 1,
                },
                msg,
            ),
            [Value::Int(a), Value::Int(b)] => self.push_int_key(
                IntKey {
                    cells: [a, b],
                    len: 2,
                },
                msg,
            ),
            _ => self.push_generic(
                |keys| keys.push_with(key.len(), |b| b.push_values(key)),
                msg,
            ),
        }
    }

    /// Append the pair `(tuple.project(positions), msg)` without building
    /// the key: its cells go straight from the scanned row into the key
    /// arena and are hashed there — identical row, hash and bytes to
    /// [`push_pair`](Self::push_pair) of the projection.
    #[inline]
    pub fn push_projected(&mut self, tuple: TupleView<'_>, positions: &[usize], msg: MsgRef<'_>) {
        match IntKey::project(tuple, positions) {
            Some(key) => self.push_int_key(key, msg),
            None => self.push_generic(|keys| keys.push_view_projected(tuple, positions), msg),
        }
    }

    /// Append the pair `(tuple, msg)`: the whole row as the key.
    #[inline]
    pub(crate) fn push_view(&mut self, tuple: TupleView<'_>, msg: MsgRef<'_>) {
        let whole = [0, 1].get(..tuple.arity());
        match whole.and_then(|positions| IntKey::project(tuple, positions)) {
            Some(key) => self.push_int_key(key, msg),
            None => self.push_generic(|keys| keys.push_view(tuple), msg),
        }
    }

    /// Append a key that is not an [`IntKey`] — `push_key` stores it and
    /// returns its slot — hashed in place, then its message.
    #[inline(never)]
    fn push_generic(&mut self, push_key: impl FnOnce(&mut TupleStore) -> u32, msg: MsgRef<'_>) {
        let slot = push_key(&mut self.keys);
        self.push_msg(slot, |msgs| msgs.push_ref(msg));
    }

    /// Append an integer key copied from its cells, hashed from them
    /// ([`hash_ints`], equal to [`key_hash`] of the stored row), then its
    /// message.
    #[inline(always)]
    fn push_int_key(&mut self, key: IntKey, msg: MsgRef<'_>) {
        let cells = &key.cells[..key.len];
        self.keys.push_ints(cells);
        let hash = forced_key_hash().unwrap_or_else(|| hash_ints(cells.iter().copied()));
        self.hashes.push(hash);
        self.bytes += INT_VALUE_BYTES * key.len as u64 + self.msgs.push_ref(msg);
    }

    /// Hash the key just stored at `slot` in place, then append its
    /// message (`push` writes it and returns its bytes).
    fn push_msg(&mut self, slot: u32, push: impl FnOnce(&mut MsgStore) -> u64) {
        self.hashes.push(key_hash(self.keys.view(slot)));
        self.bytes += self.keys.bytes(slot) + push(&mut self.msgs);
    }

    /// Every row's key hash ([`hash_view`]), in row order.
    pub fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Zero-copy view of row `row`'s key.
    #[inline]
    pub fn key_view(&self, row: usize) -> TupleView<'_> {
        self.keys.view(row as u32)
    }

    /// Materialize row `row`'s key (tests and edge conversions; reducers
    /// read [`key_view`](Self::key_view)).
    pub fn key_tuple(&self, row: usize) -> Tuple {
        self.keys.tuple(row as u32)
    }

    /// Zero-copy view of row `row`'s message.
    #[inline]
    pub fn msg_view(&self, row: usize) -> MsgView<'_> {
        self.msgs.view(row)
    }

    /// Materialize row `row`'s message (tests and edge conversions;
    /// reducers read [`msg_view`](Self::msg_view)).
    pub fn message(&self, row: usize) -> Message {
        self.msgs.view(row).to_message()
    }

    /// Whether rows `a` and `b` hold equal keys, decided on raw cells
    /// under the batch's one dictionary ([`TupleStore::same`]).
    pub(crate) fn same_key(&self, a: usize, b: usize) -> bool {
        self.keys.same(a as u32, b as u32)
    }

    /// Estimated bytes of row `row`'s key (paper layout).
    pub fn key_bytes(&self, row: usize) -> u64 {
        self.keys.bytes(row as u32)
    }

    /// Estimated bytes of row `row` (key + message, paper layout).
    pub fn row_bytes(&self, row: usize) -> u64 {
        self.keys.bytes(row as u32) + self.msgs.bytes(row)
    }

    /// The permutation of `0..len()` in shuffle order ([`sort_refs`]).
    #[cfg(test)]
    pub(crate) fn sort_indices(&self) -> Vec<u32> {
        let refs: Vec<RowRef> = (0..self.len() as u32)
            .map(|row| RowRef { batch: 0, row })
            .collect();
        let batches = Batches::of(std::slice::from_ref(self));
        (sort_refs(batches, &refs).refs.into_iter())
            .map(|r| r.row)
            .collect()
    }

    /// Drop every row, keeping arena capacity.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.hashes.clear();
        self.msgs.clear();
        self.bytes = 0;
    }

    /// Materialize every row (tests and edge conversions).
    pub fn to_pairs(&self) -> Vec<(Tuple, Message)> {
        (0..self.len())
            .map(|r| (self.key_tuple(r), self.message(r)))
            .collect()
    }

    /// Append the batch's wire encoding (a columnar spill frame body):
    /// keys, then messages; the key hashes are not stored. The bytes are a
    /// function of the rows alone, those of a run frame holding the same
    /// pairs.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<()> {
        let rows: Vec<RowRef> = (0..self.len() as u32)
            .map(|row| RowRef { batch: 0, row })
            .collect();
        let batches = Batches::of(std::slice::from_ref(self));
        SinkBuffers::default().encode(batches, &rows, out)
    }

    /// Decode one frame body produced by [`encode_into`](Self::encode_into),
    /// re-hashing every key. The decoded batch's
    /// [`estimated_bytes`](Self::estimated_bytes) is 0: a spilled row's
    /// bytes were metered when it was buffered, and the merge reads a
    /// frame only through row handles ([`row_bytes`](Self::row_bytes)
    /// still answers per row).
    pub fn decode(buf: &[u8]) -> Result<PairBatch> {
        let mut batch = PairBatch::new();
        batch.decode_into(buf)?;
        Ok(batch)
    }

    /// [`decode`](Self::decode) into this batch, whatever frame it held
    /// before, reusing its arenas: a batch decoded into frame after frame
    /// allocates only to grow, and keeps nothing of the old frame — no
    /// tag vector, dictionary entry or locator. On error the batch is left
    /// empty.
    pub fn decode_into(&mut self, buf: &[u8]) -> Result<()> {
        let decoded = self.decode_fields(buf);
        if decoded.is_err() {
            self.clear();
        }
        decoded
    }

    fn decode_fields(&mut self, buf: &[u8]) -> Result<()> {
        let mut pos = 0;
        self.keys.decode_into(buf, &mut pos)?;
        self.msgs.decode_into(buf, &mut pos)?;
        if pos != buf.len() {
            return Err(GumboError::Storage(
                "corrupt columnar frame: trailing bytes".into(),
            ));
        }
        // A nullary key batch claims its row count without a byte per
        // row; the message kinds take one each, so hashing only after
        // the counts agree keeps the work bounded by the frame's size.
        if self.keys.len() != self.msgs.len() {
            return Err(GumboError::Storage(
                "corrupt columnar frame: key/message row mismatch".into(),
            ));
        }
        self.hashes.clear();
        self.keys.hash_into(&mut self.hashes);
        self.bytes = 0;
        Ok(())
    }

    /// The end of the run of rows sharing row `start`'s key, in a batch
    /// whose rows are in shuffle order (a run frame). The hash column is
    /// scanned first; rows of one hash are sorted by key, so when the last
    /// of them has `start`'s key all do, and a group without a collision
    /// costs one key comparison, not one per row.
    fn key_run_end(&self, start: usize) -> usize {
        let hash = self.hashes[start];
        let hash_end = (self.hashes[start..].iter())
            .position(|&h| h != hash)
            .map_or(self.len(), |n| start + n);
        let same = |row: usize| self.keys.same(start as u32, row as u32);
        if hash_end - start == 1 || same(hash_end - 1) {
            return hash_end;
        }
        let mut end = start + 1;
        while same(end) {
            end += 1;
        }
        end
    }
}

// ---------------------------------------------------------------------------
// Row handles
// ---------------------------------------------------------------------------

/// Batch numbers from this one up name decoded run frames; below it, map
/// task outputs.
const FRAME: u32 = 1 << 31;

/// A handle to one shuffled row: row `row` of map task `batch`'s output
/// when `batch < FRAME`, else of the decoded run frame in slot
/// `batch - FRAME` of the merge's [`FrameSlab`]. Eight bytes, whatever
/// the row holds, laid out like the `u64` sort words so that the sorted
/// handles reuse the words' allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(8))]
struct RowRef {
    batch: u32,
    row: u32,
}

/// The batches [`RowRef`]s resolve against: the map outputs, which stay
/// resident until every reducer of the job has finished, and the decoded
/// run frames a merge holds.
#[derive(Clone, Copy)]
struct Batches<'s> {
    outputs: &'s [PairBatch],
    frames: &'s [PairBatch],
}

impl<'s> Batches<'s> {
    fn of(outputs: &'s [PairBatch]) -> Batches<'s> {
        Batches {
            outputs,
            frames: &[],
        }
    }

    #[inline]
    fn get(self, r: RowRef) -> &'s PairBatch {
        self.pair(r.batch)
    }

    /// The batch a handle's `batch` field names.
    #[inline]
    fn pair(self, batch: u32) -> &'s PairBatch {
        match batch.checked_sub(FRAME) {
            None => &self.outputs[batch as usize],
            Some(slot) => &self.frames[slot as usize],
        }
    }

    #[inline]
    fn hash(self, r: RowRef) -> u64 {
        self.get(r).hashes[r.row as usize]
    }

    #[inline]
    fn key(self, r: RowRef) -> TupleView<'s> {
        self.get(r).key_view(r.row as usize)
    }

    /// Whether rows `a` and `b` have equal keys: equal hashes, then equal
    /// raw cells within one batch — whose one dictionary codes each
    /// string once — or equal content across two, whose dictionaries may
    /// give the same string different codes.
    fn same_key(self, a: RowRef, b: RowRef) -> bool {
        self.hash(a) == self.hash(b)
            && if a.batch == b.batch {
                self.get(a).keys.same(a.row, b.row)
            } else {
                self.key(a) == self.key(b)
            }
    }

    /// Shuffle order of two rows' keys: hash, then [`TupleView`] order.
    fn cmp(self, a: RowRef, b: RowRef) -> Ordering {
        (self.hash(a).cmp(&self.hash(b))).then_with(|| self.key(a).cmp(&self.key(b)))
    }
}

/// Rows in shuffle order ([`sort_refs`]), and where each key group
/// starts among them.
struct SortedRefs {
    refs: Vec<RowRef>,
    /// The position in `refs` of every key group's first row, ascending.
    starts: Vec<u32>,
}

/// A key as one word and a class byte (9 bytes, packed), which decide
/// equality on their own when they can: the nullary key, one integer, or
/// two integers that fit 32 bits each, each shape in its own class; every
/// other key — longer, wider, or holding a string — is
/// [`KeyPrefix::OTHER`]. Two keys are equal iff their prefixes are,
/// unless both are `OTHER`. Strings never enter a prefix, so prefixes of
/// batches with different dictionaries compare by content.
///
/// The prefix pays only for integer keys of arity ≤ 2 — the MSJ keys
/// (one join variable) and EVAL keys (`(j, id)`) of integer relations.
/// For other keys the gather is wasted reads (25–30 % more shuffle time
/// on string or three-field keys, measured), so [`sort_refs`] gathers
/// prefixes only when every map output's keys are of that shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, packed)]
struct KeyPrefix {
    word: u64,
    class: u8,
}

impl KeyPrefix {
    const OTHER: KeyPrefix = KeyPrefix { word: 0, class: 3 };

    fn of(key: TupleView<'_>) -> KeyPrefix {
        let int = |c: usize| match key.value(c) {
            ValueRef::Int(i) => Some(i),
            ValueRef::Str(_) => None,
        };
        let half = |c: usize| int(c).and_then(|i| i32::try_from(i).ok()).map(|i| i as u32);
        let prefix = match key.arity() {
            0 => Some((0, 0)),
            1 => int(0).map(|i| (i as u64, 1)),
            2 => half(0)
                .zip(half(1))
                .map(|(a, b)| ((u64::from(a) << 32) | u64::from(b), 2)),
            _ => None,
        };
        prefix.map_or(KeyPrefix::OTHER, |(word, class)| KeyPrefix { word, class })
    }
}

/// `refs` in shuffle order: keys ascending by `(hash, Tuple)`, equal keys
/// in `refs` order. An index sort on one fixed-width word per row — the
/// hash's high half above the row's position in `refs`; no comparator
/// reads a cell — then one linear scan that checks each adjacent pair
/// sharing that half for equal keys. Only a run holding two different
/// keys (a real collision, or hashes that differ in the low half) is
/// re-sorted, stably by `(hash, Tuple)`. The scan finds the key group
/// boundaries on the way, so no later pass compares keys.
///
/// The rows sit wherever their map tasks wrote them, so when every map
/// output holds only integer keys of arity ≤ 2, the pass that builds the
/// words — in `refs` order, which walks each map output forward — also
/// gathers every row's [`KeyPrefix`] into one compact vector: the scan's
/// equality tests then read the map outputs only for keys no prefix
/// decides. Otherwise every test reads the map outputs.
fn sort_refs(batches: Batches<'_>, refs: &[RowRef]) -> SortedRefs {
    const SEQ: u64 = u32::MAX as u64;
    let prefixed = (batches.outputs.iter()).all(|b| b.keys.ints_up_to(2));
    let mut words = Vec::with_capacity(refs.len());
    let mut prefixes = Vec::with_capacity(if prefixed { refs.len() } else { 0 });
    for (&r, seq) in refs.iter().zip(0u32..) {
        words.push((batches.hash(r) & !SEQ) | u64::from(seq));
        if prefixed {
            prefixes.push(KeyPrefix::of(batches.key(r)));
        }
    }
    words.sort_unstable();
    let at = |word: u64| refs[(word & SEQ) as usize];
    let same_key = |a: u64, b: u64| {
        if !prefixed {
            return batches.same_key(at(a), at(b));
        }
        let prefix = prefixes[(a & SEQ) as usize];
        prefix == prefixes[(b & SEQ) as usize]
            && (prefix != KeyPrefix::OTHER || batches.same_key(at(a), at(b)))
    };
    let mut starts = Vec::new();
    let mut start = 0;
    while start < words.len() {
        starts.push(start as u32);
        let mut end = start + 1;
        let mut mixed = false;
        while end < words.len() && words[end] & !SEQ == words[start] & !SEQ {
            mixed |= !same_key(words[end - 1], words[end]);
            end += 1;
        }
        if mixed {
            let run = &mut words[start..end];
            run.sort_by(|&a, &b| batches.cmp(at(a), at(b)));
            for i in 1..run.len() {
                if !same_key(run[i - 1], run[i]) {
                    starts.push((start + i) as u32);
                }
            }
        }
        start = end;
    }
    SortedRefs {
        refs: words.into_iter().map(at).collect(),
        starts,
    }
}

// ---------------------------------------------------------------------------
// Spilling batch partition
// ---------------------------------------------------------------------------

/// One reducer partition's shuffle buffer: handles to its rows in the map
/// outputs — no row is copied — charging the shared budget *per appended
/// chunk* the bytes those rows account for, and spilling index-sorted
/// columnar frames.
pub struct BatchPartition<'a> {
    partition: usize,
    share: u64,
    granule: u64,
    budget: &'a MemoryBudget,
    spill: &'a ShuffleSpill,
    /// The job's map outputs in task order, which the handles point into.
    outputs: &'a [PairBatch],
    /// The buffered rows, in append (= emission) order.
    refs: Vec<RowRef>,
    /// Estimated bytes of the buffered rows.
    bytes: u64,
    /// Bytes currently reserved in the budget for the buffer (may exceed
    /// it by part of a granule, and fall short by at most one append
    /// that could not be reserved before its flush).
    charged: u64,
    total_bytes: u64,
    runs: Vec<Run>,
    next_seq: u64,
    stats: SpillStats,
    /// The buffers every run this partition writes is gathered in.
    sink: SinkBuffers,
}

impl<'a> BatchPartition<'a> {
    /// An empty buffer for reducer `partition` of `partitions`, over the
    /// map outputs `outputs`.
    pub fn new(
        partition: usize,
        budget: &'a MemoryBudget,
        spill: &'a ShuffleSpill,
        outputs: &'a [PairBatch],
        partitions: usize,
    ) -> BatchPartition<'a> {
        let share = budget.partition_share(partitions);
        // Charge in granules so a batch append is one budget interaction:
        // a quarter-share granule keeps the tracked figure within the
        // limit's resolution while bounding atomic traffic.
        let granule = match budget.limit() {
            None => UNLIMITED_GRANULE,
            Some(_) => (share / 4).clamp(64, UNLIMITED_GRANULE),
        };
        BatchPartition {
            partition,
            share,
            granule,
            budget,
            spill,
            outputs,
            refs: Vec::new(),
            bytes: 0,
            charged: 0,
            total_bytes: 0,
            runs: Vec::new(),
            next_seq: 0,
            stats: SpillStats::default(),
            sink: SinkBuffers::default(),
        }
    }

    /// Total estimated bytes pushed into this partition so far.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Append the selected rows of map task `task`'s output (in `rows`
    /// order), settling the budget once per frame-sized chunk so the
    /// buffer never runs more than one frame past what the budget has
    /// granted.
    pub fn push_rows(&mut self, task: usize, rows: &[u32]) -> Result<()> {
        let batch = u32::try_from(task)
            .ok()
            .filter(|&b| b < FRAME)
            .expect("under 2^31 map tasks");
        let src = &self.outputs[task];
        for chunk in rows.chunks(ROWS_PER_FRAME) {
            let mut added = 0;
            for &row in chunk {
                added += src.row_bytes(row as usize);
                self.refs.push(RowRef { batch, row });
            }
            self.bytes += added;
            self.total_bytes += added;
            self.settle()?;
        }
        Ok(())
    }

    /// Bring the budget charge in line with the buffer: grant in
    /// granules, flush when the budget refuses or the share is crossed.
    fn settle(&mut self) -> Result<()> {
        let buffered = self.bytes;
        if self.budget.limit().is_none() {
            if buffered > self.charged {
                let grant = (buffered - self.charged).div_ceil(self.granule) * self.granule;
                let granted = self.budget.try_charge(grant);
                debug_assert!(granted, "an unlimited budget always grants");
                self.charged += grant;
            }
            return Ok(());
        }
        if buffered > self.charged {
            let need = buffered - self.charged;
            let grant = need.div_ceil(self.granule) * self.granule;
            if self.budget.try_charge(grant) {
                self.charged += grant;
            } else if self.budget.try_charge(need) {
                // The rounded-up granule did not fit but the exact need
                // does: take it rather than spilling early.
                self.charged += need;
            } else {
                // Global budget exhausted: flush what we hold — including
                // the (briefly unreserved) freshly appended rows.
                crate::shuffle::BUDGET_DENIALS.incr();
                gumbo_obs::event("budget:exhausted", |f| {
                    f.str("job", self.spill.label());
                    f.u64("partition", self.partition as u64);
                    f.u64("denied_bytes", need);
                    f.u64("buffered_bytes", buffered);
                });
                return self.flush();
            }
        }
        if buffered > self.share {
            return self.flush();
        }
        Ok(())
    }

    /// Index-sort the buffer into shuffle order ([`sort_refs`]) and write
    /// the rows it references out as one run of columnar frames.
    fn flush(&mut self) -> Result<()> {
        if self.refs.is_empty() {
            return Ok(());
        }
        // The span's `bytes` field is exactly this flush's increment of
        // `JobStats.spilled_bytes` — traces and stats stay reconcilable.
        let mut span = gumbo_obs::span_with("spill:run", |f| {
            f.str("job", self.spill.label());
            f.u64("partition", self.partition as u64);
            f.u64("bytes", self.bytes);
            f.u64("pairs", self.refs.len() as u64);
        });
        let batches = Batches::of(self.outputs);
        let order = sort_refs(batches, &self.refs).refs;
        let path = self.spill.run_path(self.partition, self.next_seq)?;
        self.next_seq += 1;
        let mut sink = RunSink::create(&path, &mut self.sink)?;
        sink.write_rows(batches, &order)?;
        let (frames, disk_bytes) = sink.finish(batches)?;
        span.record(|f| f.u64("disk_bytes", disk_bytes));
        crate::shuffle::SPILL_RUNS.incr();
        crate::shuffle::SPILL_BYTES.add(self.bytes);
        self.runs.push(Run {
            path,
            frames,
            bytes: disk_bytes,
        });
        self.stats.spill_files += 1;
        self.stats.spilled_bytes += self.bytes;
        self.stats.spilled_disk_bytes += disk_bytes;
        self.budget.release(self.charged);
        self.charged = 0;
        self.refs.clear();
        self.bytes = 0;
        Ok(())
    }

    /// Finish the partition: collapse runs under the merge fan-in,
    /// index-sort the in-memory tail, and hand back the grouped stream
    /// plus this partition's spill statistics.
    pub fn into_groups(mut self) -> Result<(BatchGroupStream<'a>, SpillStats)> {
        // Intermediate passes: merge the cheapest window of adjacent runs
        // into one, in its place (ties drain earlier runs first, so the
        // runs stay slices of the emission order), until runs + tail fit
        // the fan-in.
        while let Some(window) = merge_window(&self.runs) {
            let _span = gumbo_obs::span_with("spill:merge", |f| {
                f.str("job", self.spill.label());
                f.u64("partition", self.partition as u64);
                f.u64("fan_in", window.len() as u64);
            });
            let merged: Vec<Run> = self.runs.drain(window.clone()).collect();
            let path = self.spill.run_path(self.partition, self.next_seq)?;
            self.next_seq += 1;
            let mut sink = RunSink::create(&path, &mut self.sink)?;
            let mut merge = BatchMerge::open(self.outputs, &merged, None)?;
            while merge.next_group(|batches, r| sink.push(batches, r))? {
                // The sink reads the rows it holds when their frame fills,
                // so a frame the merge has moved past is reused only once
                // the sink has written every row pushed before.
                merge.slab.release_written(sink.frames());
            }
            let (frames, bytes) = sink.finish(merge.batches())?;
            self.runs.insert(
                window.start,
                Run {
                    path,
                    frames,
                    bytes,
                },
            );
            crate::shuffle::MERGE_PASSES.incr();
            self.stats.spill_files += 1;
            self.stats.merge_passes += 1;
        }

        let tail = sort_refs(Batches::of(self.outputs), &std::mem::take(&mut self.refs));
        let merge = BatchMerge::open(self.outputs, &self.runs, Some(tail))?;
        let stats = self.stats;
        Ok((
            BatchGroupStream {
                merge,
                rows: Vec::new(),
                budget: self.budget,
                charged: std::mem::take(&mut self.charged),
                _runs: std::mem::take(&mut self.runs),
            },
            stats,
        ))
    }
}

/// The adjacent runs the next intermediate merge pass rewrites:
/// [`merge_width`] of them, the window with the fewest file bytes (the
/// earliest of equal ones), so that a pass rewrites a run an earlier pass
/// wrote only when no cheaper window is left. `None` once the runs plus
/// the in-memory tail fit [`MERGE_FANIN`].
fn merge_window(runs: &[Run]) -> Option<Range<usize>> {
    let take = merge_width(runs.len());
    if take == 0 {
        return None;
    }
    let mut bytes: u64 = runs[..take].iter().map(|r| r.bytes).sum();
    let (mut best, mut best_bytes) = (0, bytes);
    for start in 1..=runs.len() - take {
        bytes = bytes - runs[start - 1].bytes + runs[start + take - 1].bytes;
        if bytes < best_bytes {
            (best, best_bytes) = (start, bytes);
        }
    }
    Some(best..best + take)
}

/// How many spilled runs of `runs` the next intermediate merge pass
/// rewrites: none once the runs plus the in-memory tail fit
/// [`MERGE_FANIN`], else just enough to make them fit, at most the fan-in.
/// Only the last pass takes fewer than the fan-in, so the number of
/// passes is that of always taking the fan-in.
fn merge_width(runs: usize) -> usize {
    if runs < MERGE_FANIN {
        return 0;
    }
    MERGE_FANIN.min(runs + 2 - MERGE_FANIN)
}

impl Drop for BatchPartition<'_> {
    fn drop(&mut self) {
        self.budget.release(self.charged);
    }
}

// ---------------------------------------------------------------------------
// Run files and the streaming merge over columnar sources
// ---------------------------------------------------------------------------

/// The reused buffers of a partition's [`RunSink`]s: the frame being
/// laid out, the rows waiting for it, and the gather scratch.
#[derive(Default)]
struct SinkBuffers {
    /// The frame being written: [`RunWriter::HEADER`] bytes of room, then
    /// the block.
    frame: Vec<u8>,
    /// Rows pushed since the last frame was written, in push order.
    pending: Vec<RowRef>,
    /// Where each frame row's key and payload tuple live, and each row's
    /// message slot with its payload renumbered into the frame.
    keys: Vec<Gathered>,
    payloads: Vec<Gathered>,
    slots: Vec<MsgSlot>,
    scratch: Scratch,
}

impl SinkBuffers {
    /// Append the frame body of `rows`, in order: the keys' [`TupleStore`]
    /// ([`encode_store`]), the message slots ([`encode_slots`]) and the
    /// payloads' store, each gathered column by column straight from the
    /// rows where they sit. The bytes are a function of the rows alone.
    fn encode(&mut self, batches: Batches<'_>, rows: &[RowRef], out: &mut Vec<u8>) -> Result<()> {
        self.keys.clear();
        self.payloads.clear();
        self.slots.clear();
        for &r in rows {
            let pair = batches.get(r);
            let at = |loc: Loc| Gathered {
                batch: r.batch,
                arity: loc.arity,
                row: loc.row,
            };
            self.keys.push(at(pair.keys.loc(r.row)));
            let mut slot = pair.msgs.slots[r.row as usize];
            if let KIND_REQ_TUPLE | KIND_GUARD_TUPLE = slot.kind {
                self.payloads.push(at(pair.msgs.tuples.loc(slot.aux)));
                slot.aux = (self.payloads.len() - 1) as u32;
            }
            self.slots.push(slot);
        }
        let key = move |g: Gathered| {
            (batches.pair(g.batch).keys.by_arity[g.arity as usize]).view(g.row as usize)
        };
        let payload = move |g: Gathered| {
            (batches.pair(g.batch).msgs.tuples.by_arity[g.arity as usize]).view(g.row as usize)
        };
        // Whether any map output holds a string in the store: a run frame
        // holds only rows of the map outputs, so it holds a string only if
        // they do.
        let strings = |store: fn(&PairBatch) -> &TupleStore| {
            (batches.outputs.iter()).any(|pair| !store(pair).ints_up_to(usize::MAX))
        };
        let (key_strings, payload_strings) = (strings(|p| &p.keys), strings(|p| &p.msgs.tuples));
        let scratch = &mut self.scratch;
        encode_store(&self.keys, key, key_strings, scratch, out)?;
        encode_slots(&self.slots, out);
        encode_store(&self.payloads, payload, payload_strings, scratch, out)
    }
}

/// Scratch of one frame's gather: the dictionary of the batch being
/// encoded and a row counter per arity.
#[derive(Debug, Default)]
struct Scratch {
    dict: StringDict,
    counts: Vec<u32>,
}

/// Writes rows, in the order pushed, as one run of columnar frames of up
/// to [`ROWS_PER_FRAME`] rows: the one write path of flushes and
/// intermediate merge passes. A frame is gathered column by column
/// straight from the rows where they sit into the frame buffer, header
/// room first ([`SinkBuffers::encode`]), and goes to the file in one
/// write. Its bytes are a function of its rows alone — what
/// [`PairBatch::encode_into`] writes for a batch holding the same pairs —
/// so spill byte counts depend neither on how a frame was built nor on
/// the frames before it.
struct RunSink<'b> {
    writer: RunWriter,
    buffers: &'b mut SinkBuffers,
    frames: u64,
}

impl<'b> RunSink<'b> {
    fn create(path: &Path, buffers: &'b mut SinkBuffers) -> Result<RunSink<'b>> {
        buffers.pending.clear();
        Ok(RunSink {
            writer: RunWriter::create(path)?,
            buffers,
            frames: 0,
        })
    }

    /// Frames written so far. A row pushed before the last of them was
    /// written is no longer read.
    fn frames(&self) -> u64 {
        self.frames
    }

    /// Append row `r` of `batches`. It is read when its frame fills, or at
    /// [`finish`](Self::finish); until then it must stay readable there.
    fn push(&mut self, batches: Batches<'_>, r: RowRef) -> Result<()> {
        self.buffers.pending.push(r);
        if self.buffers.pending.len() == ROWS_PER_FRAME {
            self.write_pending(batches)?;
        }
        Ok(())
    }

    /// Write the pending rows as one frame.
    fn write_pending(&mut self, batches: Batches<'_>) -> Result<()> {
        let mut pending = std::mem::take(&mut self.buffers.pending);
        let written = self.write_frame(batches, &pending);
        pending.clear();
        self.buffers.pending = pending;
        written
    }

    /// Append `rows`, all of them readable in `batches` now, with nothing
    /// pending.
    fn write_rows(&mut self, batches: Batches<'_>, rows: &[RowRef]) -> Result<()> {
        debug_assert!(self.buffers.pending.is_empty(), "rows pending");
        for frame in rows.chunks(ROWS_PER_FRAME) {
            self.write_frame(batches, frame)?;
        }
        Ok(())
    }

    /// Gather `rows` into one frame and write it.
    fn write_frame(&mut self, batches: Batches<'_>, rows: &[RowRef]) -> Result<()> {
        let mut frame = std::mem::take(&mut self.buffers.frame);
        frame.clear();
        frame.resize(RunWriter::HEADER, 0);
        let written = (self.buffers.encode(batches, rows, &mut frame))
            .and_then(|()| self.writer.push_framed(&mut frame));
        self.buffers.frame = frame;
        written?;
        self.frames += 1;
        Ok(())
    }

    /// Write the last partial frame and close the run, returning its
    /// `(frames, file bytes)`.
    fn finish(mut self, batches: Batches<'_>) -> Result<(u64, u64)> {
        if !self.buffers.pending.is_empty() {
            self.write_pending(batches)?;
        }
        self.writer.finish()
    }
}

/// Decoded run frames, addressed by slot. A run source whose frame runs
/// out decodes its next frame into a free slot — into the arenas of the
/// frame that slot held last, so a merge allocates per source, not per
/// frame — and retires the old one, which stays readable until it is
/// released: the group being visited may hold rows of it, and so may a
/// run sink's pending frame.
#[derive(Default)]
struct FrameSlab {
    frames: Vec<PairBatch>,
    free: Vec<u32>,
    retired: Vec<u32>,
    /// Retired slots a run sink may still read, each with the number of
    /// frames the sink had written when it was seen retired.
    held: std::collections::VecDeque<(u32, u64)>,
}

impl FrameSlab {
    /// A free slot, its batch holding whatever it held last.
    fn take(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.frames.push(PairBatch::new());
            (self.frames.len() - 1) as u32
        })
    }

    /// Decode `block`, a run frame, into a free slot, returning the slot.
    /// A run frame is never empty: the merge takes a source whose frame
    /// holds no row for drained, so an empty one would end its run early.
    fn decode_rows(&mut self, block: &[u8]) -> Result<u32> {
        let slot = self.take();
        let frame = &mut self.frames[slot as usize];
        let decoded = frame.decode_into(block).and_then(|()| {
            if frame.is_empty() {
                return Err(GumboError::Storage("corrupt spill run: empty frame".into()));
            }
            Ok(())
        });
        if decoded.is_err() {
            self.free.push(slot);
        }
        decoded.map(|()| slot)
    }

    /// Free every retired slot: nothing reads them any more.
    fn release(&mut self) {
        self.free.append(&mut self.retired);
    }

    /// Free the slots a run sink that has now written `frames` frames no
    /// longer reads. A slot is retired only after every row of its frame
    /// was pushed, so a sink that has written a frame since the slot was
    /// seen retired has written all of them.
    fn release_written(&mut self, frames: u64) {
        while let Some(&(slot, seen)) = self.held.front() {
            if seen >= frames {
                break;
            }
            self.free.push(slot);
            self.held.pop_front();
        }
        (self.held).extend(self.retired.drain(..).map(|slot| (slot, frames)));
    }
}

/// One merge input.
enum BatchSource {
    /// A run of columnar frames on disk, decoded one frame at a time — a
    /// bounded window of the run — into slot `slot` of the frame slab.
    /// Its frames were flushed sorted and are visited row by row.
    Run {
        reader: RunReader,
        slot: u32,
        at: u32,
    },
    /// The index-sorted in-memory tail: handles into the map outputs,
    /// drained a whole key group at a time (`group` indexes the group
    /// starting at `at`).
    Memory {
        tail: SortedRefs,
        at: usize,
        group: usize,
    },
}

/// K-way stable merge over sources sorted in shuffle order: keys ascend
/// by `(hash, Tuple)`; equal keys drain earlier sources first,
/// reconstructing global emission order within each key (source order
/// *is* emission order).
struct BatchMerge<'a> {
    outputs: &'a [PairBatch],
    sources: Vec<BatchSource>,
    slab: FrameSlab,
    /// The sources not yet drained, in source order, each with the hash
    /// of its head row: the min-scan reads no row.
    live: Vec<(usize, u64)>,
    /// Positions in `live` of the sources whose head holds the current
    /// smallest key, in source order; reused from group to group.
    holders: Vec<usize>,
}

impl<'a> BatchMerge<'a> {
    /// Merge `runs`, oldest first, and then `tail`, the sorted handles of
    /// the newest rows.
    fn open(
        outputs: &'a [PairBatch],
        runs: &[Run],
        tail: Option<SortedRefs>,
    ) -> Result<BatchMerge<'a>> {
        let mut slab = FrameSlab::default();
        let mut sources = Vec::with_capacity(runs.len() + 1);
        for run in runs {
            let mut reader = RunReader::open_expecting(&run.path, run.frames, run.bytes)?;
            let slot = match reader.next_frame()? {
                Some(block) => slab.decode_rows(block)?,
                None => {
                    let slot = slab.take();
                    slab.frames[slot as usize].clear();
                    slot
                }
            };
            sources.push(BatchSource::Run {
                reader,
                slot,
                at: 0,
            });
        }
        if let Some(tail) = tail {
            sources.push(BatchSource::Memory {
                tail,
                at: 0,
                group: 0,
            });
        }
        let mut merge = BatchMerge {
            outputs,
            sources,
            slab,
            live: Vec::new(),
            holders: Vec::new(),
        };
        for i in 0..merge.sources.len() {
            if let Some(head) = merge.head(i) {
                let hash = merge.batches().hash(head);
                merge.live.push((i, hash));
            }
        }
        Ok(merge)
    }

    fn batches(&self) -> Batches<'_> {
        Batches {
            outputs: self.outputs,
            frames: &self.slab.frames,
        }
    }

    /// Source `i`'s current row, or `None` when it is drained (or its
    /// frame is, until [`refill`](Self::refill)).
    fn head(&self, i: usize) -> Option<RowRef> {
        match &self.sources[i] {
            BatchSource::Run { slot, at, .. } => {
                ((*at as usize) < self.slab.frames[*slot as usize].len()).then_some(RowRef {
                    batch: FRAME + slot,
                    row: *at,
                })
            }
            BatchSource::Memory { tail, at, .. } => tail.refs.get(*at).copied(),
        }
    }

    /// Decode run source `i`'s next frame into a free slot, retiring the
    /// old one; `false` when it has no frame left.
    fn refill(&mut self, i: usize) -> Result<bool> {
        let BatchSource::Run { reader, slot, at } = &mut self.sources[i] else {
            unreachable!("only runs refill");
        };
        let Some(block) = reader.next_frame()? else {
            return Ok(false);
        };
        let fresh = self.slab.decode_rows(block)?;
        self.slab.retired.push(*slot);
        *slot = fresh;
        *at = 0;
        Ok(true)
    }

    /// Visit every row of the smallest key group in value order, advancing
    /// past it; `false` once every source is drained. One min-scan per
    /// group over the live sources' head hashes finds every source holding
    /// the smallest hash; only when several do are their keys compared
    /// ([`TupleView`] order), and the holders of the smallest key kept.
    /// Each holder's whole run of the key is then drained in one go,
    /// earliest source first. Frames a source moves past are retired, not
    /// freed: the caller releases them ([`FrameSlab::release`]) once it
    /// reads them no more.
    fn next_group(
        &mut self,
        mut visit: impl FnMut(Batches<'_>, RowRef) -> Result<()>,
    ) -> Result<bool> {
        // One live source — an unspilled partition's tail, or the last
        // source left — needs no min-scan and so no head hash.
        if let [(i, _)] = self.live[..] {
            self.drain_group(i, &mut visit)?;
            if self.head(i).is_none() {
                self.live.clear();
            }
            return Ok(true);
        }
        let mut holders = std::mem::take(&mut self.holders);
        holders.clear();
        let mut min = u64::MAX;
        for (k, &(_, hash)) in self.live.iter().enumerate() {
            if hash < min {
                min = hash;
                holders.clear();
            }
            if hash == min {
                holders.push(k);
            }
        }
        if holders.len() > 1 {
            let batches = self.batches();
            let key = |k: usize| batches.key(self.head(self.live[k].0).expect("a live source"));
            let mut kept = 1;
            for j in 1..holders.len() {
                match key(holders[j]).cmp(&key(holders[0])) {
                    Ordering::Less => {
                        holders[0] = holders[j];
                        kept = 1;
                    }
                    Ordering::Equal => {
                        holders[kept] = holders[j];
                        kept += 1;
                    }
                    Ordering::Greater => {}
                }
            }
            holders.truncate(kept);
        }
        let mut drained = false;
        for &k in &holders {
            let i = self.live[k].0;
            self.drain_group(i, &mut visit)?;
            match self.head(i) {
                Some(head) => self.live[k].1 = self.batches().hash(head),
                None => drained = true,
            }
        }
        if drained {
            let mut live = std::mem::take(&mut self.live);
            live.retain(|&(i, _)| self.head(i).is_some());
            self.live = live;
        }
        let found = !holders.is_empty();
        self.holders = holders;
        Ok(found)
    }

    /// Visit source `i`'s head row and every following row with the same
    /// key, advancing past them. The tail knows its group boundaries from
    /// its sort; a run finds the end of the key in its frame from the
    /// hash column ([`PairBatch::key_run_end`]), and compares hash and
    /// content across the last row of one frame and the first of the next
    /// ([`Batches::same_key`]).
    fn drain_group(
        &mut self,
        i: usize,
        visit: &mut impl FnMut(Batches<'_>, RowRef) -> Result<()>,
    ) -> Result<()> {
        loop {
            let batches = Batches {
                outputs: self.outputs,
                frames: &self.slab.frames,
            };
            let (slot, at) = match &mut self.sources[i] {
                BatchSource::Memory { tail, at, group } => {
                    let end = tail
                        .starts
                        .get(*group + 1)
                        .map_or(tail.refs.len(), |&s| s as usize);
                    for &r in &tail.refs[*at..end] {
                        visit(batches, r)?;
                    }
                    *at = end;
                    *group += 1;
                    return Ok(());
                }
                BatchSource::Run { slot, at, .. } => (*slot, at),
            };
            let frame = &batches.frames[slot as usize];
            let (start, batch) = (*at as usize, FRAME + slot);
            if start == frame.len() {
                return Ok(());
            }
            let end = frame.key_run_end(start);
            for row in start as u32..end as u32 {
                visit(batches, RowRef { batch, row })?;
            }
            *at = end as u32;
            if end < frame.len() || !self.refill(i)? {
                return Ok(());
            }
            let last = RowRef {
                batch,
                row: end as u32 - 1,
            };
            match self.head(i) {
                Some(next) if self.batches().same_key(last, next) => {}
                _ => return Ok(()),
            }
        }
    }
}

/// The grouped stream the reducer consumes: keys ascend by
/// `(hash, Tuple)` and values stay in global emission order, each group
/// handed out as a borrowed [`Group`].
pub struct BatchGroupStream<'a> {
    merge: BatchMerge<'a>,
    /// The current group's row handles, reused from group to group.
    rows: Vec<RowRef>,
    budget: &'a MemoryBudget,
    charged: u64,
    _runs: Vec<Run>,
}

impl BatchGroupStream<'_> {
    /// The next key group, or `None` when the partition is exhausted. The
    /// group borrows the stream: its rows stay readable — run frames it
    /// spans included — until the next call.
    pub fn next_group(&mut self) -> Result<Option<Group<'_>>> {
        // The previous group, the one reader of the frames the merge has
        // moved past, is gone.
        self.merge.slab.release();
        self.rows.clear();
        let rows = &mut self.rows;
        let found = self.merge.next_group(|_, r| {
            rows.push(r);
            Ok(())
        })?;
        Ok(found.then(|| Group {
            batches: self.merge.batches(),
            rows: &self.rows,
        }))
    }
}

impl Drop for BatchGroupStream<'_> {
    fn drop(&mut self) {
        self.budget.release(self.charged);
    }
}

/// One key group as a reducer reads it: the key and its values in global
/// emission order, each row read in place in the map output or run frame
/// that holds it. Nothing is copied or materialized until the reducer
/// emits.
pub struct Group<'g> {
    batches: Batches<'g>,
    /// Never empty.
    rows: &'g [RowRef],
}

impl<'g> Group<'g> {
    /// The group's key.
    #[inline]
    pub fn key(&self) -> TupleView<'g> {
        self.batches.key(self.rows[0])
    }

    /// The group's values in emission order; call again to iterate again.
    #[inline]
    pub fn values(&self) -> impl ExactSizeIterator<Item = MsgView<'g>> + Clone + 'g {
        let batches = self.batches;
        self.rows
            .iter()
            .map(move |&r| batches.get(r).msg_view(r.row as usize))
    }

    /// The owned key and values (tests).
    #[cfg(test)]
    pub(crate) fn materialize(&self) -> (Tuple, Vec<Message>) {
        let values = self.values().map(|m| m.to_message()).collect();
        (self.key().to_tuple(), values)
    }
}

/// The shuffle's contract as a test oracle: keys ascend in
/// `(key hash, Tuple)` order — the hash forced, too, under
/// [`with_forced_key_hash`] — and values keep emission order.
#[cfg(test)]
pub(crate) fn group_reference(pairs: &[(Tuple, Message)]) -> Vec<(Tuple, Vec<Message>)> {
    let mut groups: std::collections::BTreeMap<(u64, Tuple), Vec<Message>> = Default::default();
    for (k, v) in pairs {
        let mut key = TupleBatch::new(k.arity());
        key.push_tuple(k);
        groups
            .entry((key_hash(key.view(0)), k.clone()))
            .or_default()
            .push(v.clone());
    }
    groups
        .into_iter()
        .map(|((_, k), values)| (k, values))
        .collect()
}

/// Collect every group of a stream (dropping it, which releases its
/// budget charge).
#[cfg(test)]
pub(crate) fn drain(mut stream: BatchGroupStream<'_>) -> Vec<(Tuple, Vec<Message>)> {
    let mut groups = Vec::new();
    while let Some(group) = stream.next_group().unwrap() {
        groups.push(group.materialize());
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shuffle::MemBudget;
    use gumbo_common::Value;
    use proptest::prelude::*;

    #[test]
    fn a_merge_pass_rewrites_just_enough_runs() {
        for (runs, width) in [(15, 0), (16, 2), (17, 3), (31, 16), (32, 16), (100, 16)] {
            assert_eq!(merge_width(runs), width, "{runs} runs");
            // Collapse as `into_groups` does: the passes are as many as
            // with a full fan-in each time, and leave runs + tail at or
            // under the fan-in.
            let (mut left, mut passes) = (runs, 0);
            while merge_width(left) > 0 {
                left -= merge_width(left) - 1;
                passes += 1;
            }
            assert!(left < MERGE_FANIN, "{runs} runs");
            assert_eq!(passes, (runs - 1) / (MERGE_FANIN - 1), "{runs} runs");
        }
    }

    #[test]
    fn merge_passes_rewrite_the_cheapest_adjacent_runs_once() {
        // 31 flushed runs of one full frame each, plus a tail: two passes
        // must shed 16 sources. Merging the oldest runs each time rewrites
        // the first pass's output in the second (16 + 17 runs' rows); the
        // cheapest adjacent window rewrites 18 runs' rows, none twice.
        let pairs: Vec<(Tuple, Message)> = (0..31 * ROWS_PER_FRAME + 100)
            .map(|i| {
                let key = Tuple::from_ints(&[(i * 7919 % 5000) as i64]);
                (key, Message::Tag { rel: i as u32 })
            })
            .collect();
        let mut batch = PairBatch::new();
        for (k, v) in &pairs {
            batch.push_pair(k, v);
        }
        let outputs = [batch];
        let budget = MemoryBudget::new(MemBudget::UNLIMITED);
        let spill = ShuffleSpill::new("merge-window-test");
        let mut part = BatchPartition::new(0, &budget, &spill, &outputs, 1);
        let rows: Vec<u32> = (0..pairs.len() as u32).collect();
        for run in rows.chunks(ROWS_PER_FRAME) {
            part.push_rows(0, run).unwrap();
            if run.len() == ROWS_PER_FRAME {
                part.flush().unwrap();
            }
        }
        assert_eq!(part.runs.len(), 31);
        assert!(part.runs.iter().all(|r| r.bytes == part.runs[0].bytes));
        let (stream, stats) = part.into_groups().unwrap();
        assert_eq!((stats.merge_passes, stats.spill_files), (2, 33));
        // The first pass's 16-frame run survives the second pass, which
        // merges the next two flushed runs.
        let frames: Vec<u64> = stream._runs.iter().map(|r| r.frames).collect();
        let mut expected = vec![16, 2];
        expected.resize(15, 1);
        assert_eq!(frames, expected);
        assert_eq!(drain(stream), group_reference(&pairs));
    }

    fn msg_shapes() -> Vec<Message> {
        vec![
            Message::Assert { cond: 3 },
            Message::Tag { rel: u32::MAX },
            Message::Req {
                cond: 1,
                payload: Payload::Tuple(Tuple::new(vec![
                    Value::Int(5),
                    Value::str("bad"),
                    Value::Int(-6),
                ])),
            },
            Message::Req {
                cond: 2,
                payload: Payload::Ref {
                    guard: 9,
                    id: 1 << 40,
                },
            },
            Message::GuardTuple {
                guard: 0,
                tuple: Tuple::new(vec![Value::str("g")]),
            },
        ]
    }

    fn mixed_pairs() -> Vec<(Tuple, Message)> {
        let keys = [
            Tuple::from_ints(&[]),
            Tuple::from_ints(&[1, -7, i64::MAX]),
            Tuple::new(vec![Value::str("hello"), Value::Int(0), Value::str("")]),
            Tuple::from_ints(&[2]),
        ];
        let mut pairs = Vec::new();
        for k in &keys {
            for m in msg_shapes() {
                pairs.push((k.clone(), m));
            }
        }
        pairs
    }

    #[test]
    fn batch_round_trips_every_pair_shape() {
        let pairs = mixed_pairs();
        let mut batch = PairBatch::new();
        for (k, m) in &pairs {
            batch.push_pair(k, m);
        }
        assert_eq!(batch.to_pairs(), pairs);
        assert_eq!(
            batch.estimated_bytes(),
            pairs
                .iter()
                .map(|(k, m)| k.estimated_bytes() + m.estimated_bytes())
                .sum::<u64>()
        );
        for (i, (k, m)) in pairs.iter().enumerate() {
            assert_eq!(
                batch.row_bytes(i),
                k.estimated_bytes() + m.estimated_bytes()
            );
        }
    }

    #[test]
    fn frame_codec_round_trips() {
        let pairs = mixed_pairs();
        let mut batch = PairBatch::new();
        for (k, m) in &pairs {
            batch.push_pair(k, m);
        }
        let mut frame = Vec::new();
        batch.encode_into(&mut frame).unwrap();
        let back = PairBatch::decode(&frame).unwrap();
        assert_eq!(back.to_pairs(), pairs);
        for row in 0..pairs.len() {
            assert_eq!(back.row_bytes(row), batch.row_bytes(row), "row {row}");
            assert_eq!(back.hashes()[row], batch.hashes()[row], "row {row}");
        }
        assert_eq!(back.estimated_bytes(), 0, "decoding meters nothing");
    }

    #[test]
    fn frame_codec_rejects_truncation_and_garbage() {
        let mut batch = PairBatch::new();
        for (k, m) in mixed_pairs() {
            batch.push_pair(&k, &m);
        }
        let mut frame = Vec::new();
        batch.encode_into(&mut frame).unwrap();
        for cut in 0..frame.len() {
            assert!(
                PairBatch::decode(&frame[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        // Arbitrary bytes are an error too, never a misparse or a panic.
        assert!(PairBatch::decode(&[9, 9, 9, 9, 9]).is_err());
        assert!(PairBatch::decode(&[0xff; 64]).is_err());
    }

    #[test]
    fn sort_indices_is_stable_by_key() {
        let keys = [3i64, 1, 3, 2, 1];
        let sorted = || {
            let mut batch = PairBatch::new();
            for (i, key) in keys.iter().enumerate() {
                batch.push_pair(
                    &Tuple::from_ints(&[*key]),
                    &Message::Assert { cond: i as u32 },
                );
            }
            (batch.hashes().to_vec(), batch.sort_indices())
        };
        // Real hashes: ascending hash, equal keys adjacent and in emission
        // order.
        let (hashes, order) = sorted();
        let mut expected: Vec<u32> = (0..keys.len() as u32).collect();
        expected.sort_by_key(|&row| (hashes[row as usize], keys[row as usize], row));
        assert_eq!(order, expected);
        // One hash for every key: key order decides, emission order still
        // holds within each key.
        let (_, order) = with_forced_key_hash(7, sorted);
        assert_eq!(order, vec![1, 4, 3, 0, 2]);
    }

    #[test]
    fn collisions_group_like_the_oracle_through_every_merge_stage() {
        let keys = [
            Tuple::from_ints(&[4]),
            Tuple::new(vec![Value::str("k")]),
            Tuple::from_ints(&[4, 0]),
            Tuple::from_ints(&[]),
            Tuple::new(vec![Value::str("k"), Value::Int(4)]),
            Tuple::from_ints(&[-1]),
            Tuple::new(vec![Value::str("")]),
        ];
        // Runs of two frames each, more of them than the merge fan-in, key
        // groups that straddle frame boundaries, and a key mix that shifts
        // every 1 000 pairs, so that merged sources hold different keys.
        let pairs: Vec<(Tuple, Message)> = (0..20_000usize)
            .map(|i| {
                let key = keys[(i / 1000 + i % 3) % keys.len()].clone();
                (key, Message::Tag { rel: i as u32 })
            })
            .collect();
        let check = || {
            let reference = group_reference(&pairs);
            let (groups, stats, _) = group_batched(MemBudget::UNLIMITED, &pairs);
            assert_eq!(groups, reference, "in memory");
            assert_eq!(stats, SpillStats::default());
            let (groups, stats, _) = group_batched(MemBudget::bytes(12_000), &pairs);
            assert_eq!(groups, reference, "spilled ({stats:?})");
            assert!(stats.merge_passes > 0, "{stats:?}");
        };
        check();
        with_forced_key_hash(0, check);
    }

    #[test]
    fn a_merge_pass_reuses_no_frame_whose_rows_it_has_not_written() {
        // Runs of 601 rows — a full frame and one of 89 rows — over 5 000
        // keys: the 16 sources of the first merge pass move to their
        // second frame within a few hundred rows of each other, while the
        // pass's own sink still holds rows of the frames they leave.
        let pairs: Vec<(Tuple, Message)> = (0..20_000u32)
            .map(|i| {
                let key = Tuple::from_ints(&[i64::from(i * 7919 % 5000)]);
                (key, Message::Tag { rel: i })
            })
            .collect();
        let (groups, stats, _) = group_batched(MemBudget::bytes(8_400), &pairs);
        assert!(stats.merge_passes >= 2, "{stats:?}");
        assert_eq!(groups, group_reference(&pairs));
    }

    #[test]
    fn a_key_group_ending_on_a_frame_boundary_is_closed_by_content() {
        // The budget flushes the first 601 pairs as one run. Under the
        // forced hash its first frame holds exactly the smaller key's rows,
        // and the larger key opens the second frame with an equal hash.
        let (smaller, larger) = (Tuple::from_ints(&[1]), Tuple::from_ints(&[2]));
        let pairs: Vec<(Tuple, Message)> = (0..ROWS_PER_FRAME + 100)
            .map(|i| {
                let key = if i < ROWS_PER_FRAME {
                    &smaller
                } else {
                    &larger
                };
                (key.clone(), Message::Tag { rel: i as u32 })
            })
            .collect();
        let check = || {
            let (groups, stats, _) = group_batched(MemBudget::bytes(8_400), &pairs);
            assert_eq!(groups, group_reference(&pairs));
            assert_eq!(stats.spill_files, 1, "{stats:?}");
        };
        check();
        with_forced_key_hash(0, check);
    }

    /// Group a pair sequence through a `BatchPartition` under `spec`,
    /// settling the budget after every pair.
    fn group_batched(
        spec: MemBudget,
        pairs: &[(Tuple, Message)],
    ) -> (Vec<(Tuple, Vec<Message>)>, SpillStats, u64) {
        group_tasks(spec, &[pairs.len()], pairs)
    }

    /// Group a pair sequence emitted by several map tasks — task `t`
    /// emits the next `task_pairs[t]` pairs into its own batch, with its
    /// own dictionaries — through a `BatchPartition` under `spec`,
    /// settling the budget after every pair.
    fn group_tasks(
        spec: MemBudget,
        task_pairs: &[usize],
        pairs: &[(Tuple, Message)],
    ) -> (Vec<(Tuple, Vec<Message>)>, SpillStats, u64) {
        assert_eq!(task_pairs.iter().sum::<usize>(), pairs.len());
        let mut outputs = Vec::new();
        let mut rest = pairs;
        for &n in task_pairs {
            let (task, later) = rest.split_at(n);
            let mut batch = PairBatch::new();
            for (k, v) in task {
                batch.push_pair(k, v);
            }
            outputs.push(batch);
            rest = later;
        }
        let budget = MemoryBudget::new(spec);
        let spill = ShuffleSpill::new("batch-test");
        let mut part = BatchPartition::new(0, &budget, &spill, &outputs, 1);
        for (task, batch) in outputs.iter().enumerate() {
            for row in 0..batch.len() as u32 {
                part.push_rows(task, &[row]).unwrap();
            }
        }
        assert_eq!(
            part.total_bytes(),
            pairs
                .iter()
                .map(|(k, m)| k.estimated_bytes() + m.estimated_bytes())
                .sum::<u64>()
        );
        let (stream, stats) = part.into_groups().unwrap();
        let groups = drain(stream);
        assert_eq!(budget.used(), 0, "all charges released");
        (groups, stats, budget.peak())
    }

    #[test]
    fn rows_of_several_map_batches_group_by_content_not_by_code() {
        let strings = ["a", "bb", "c"];
        // Task t emits its keys starting from string t, so the three
        // batches' dictionaries give every string a different code; the
        // payload tuples rotate the other way.
        let task_pairs = [700, 500, 900];
        let mut pairs = Vec::new();
        for (t, &n) in task_pairs.iter().enumerate() {
            for i in 0..n {
                let s = strings[(t + i) % 3];
                let key = match i % 4 {
                    0 => Tuple::new(vec![Value::str(s)]),
                    1 => Tuple::new(vec![Value::str(s), Value::Int(1)]),
                    2 => Tuple::from_ints(&[(i % 5) as i64]),
                    _ => Tuple::from_ints(&[]),
                };
                let payload = Tuple::new(vec![Value::str(strings[(3 + t - i % 3) % 3])]);
                let msg = match i % 3 {
                    0 => Message::Tag { rel: i as u32 },
                    1 => Message::Req {
                        cond: i as u32,
                        payload: Payload::Tuple(payload),
                    },
                    _ => Message::GuardTuple {
                        guard: t as u32,
                        tuple: payload,
                    },
                };
                pairs.push((key, msg));
            }
        }
        // The premise: the batches code the strings differently.
        let first_code = |start: usize| {
            let mut batch = PairBatch::new();
            let (k, m) = &pairs[start];
            batch.push_pair(k, m);
            batch.keys.by_arity[1].dict().get(0).clone()
        };
        assert_ne!(first_code(0), first_code(700));
        assert_ne!(first_code(700), first_code(1200));
        let check = || {
            let reference = group_reference(&pairs);
            let (groups, stats, _) = group_tasks(MemBudget::UNLIMITED, &task_pairs, &pairs);
            assert_eq!(groups, reference, "in memory");
            assert_eq!(stats, SpillStats::default());
            let (groups, stats, _) = group_tasks(MemBudget::bytes(6_000), &task_pairs, &pairs);
            assert_eq!(groups, reference, "spilled ({stats:?})");
            assert!(stats.spilled_bytes > 0, "{stats:?}");
        };
        check();
        with_forced_key_hash(0, check);
    }

    #[test]
    fn key_prefixes_tell_apart_keys_that_share_low_bits() {
        // Pairs that agree in their low 32 bits, ints that equal a
        // string's digits, and every arity a prefix covers or refuses.
        // Each key, and whether a prefix alone decides it.
        let keys = [
            (Tuple::from_ints(&[-1, 5]), true),
            (Tuple::from_ints(&[u32::MAX as i64, 5]), false),
            (Tuple::from_ints(&[i32::MIN as i64, i32::MAX as i64]), true),
            (Tuple::from_ints(&[1 << 31, -1]), false),
            (Tuple::from_ints(&[1 << 32, 5]), false),
            (Tuple::from_ints(&[5]), true),
            (Tuple::from_ints(&[-1]), true),
            (Tuple::from_ints(&[]), true),
            (Tuple::from_ints(&[-1, 5, 0]), false),
            (Tuple::new(vec![Value::str("5")]), false),
            (Tuple::new(vec![Value::Int(-1), Value::str("5")]), false),
        ];
        for (key, exact) in &keys {
            let mut batch = TupleBatch::new(key.arity());
            batch.push_tuple(key);
            let prefix = KeyPrefix::of(batch.view(0));
            assert_eq!(prefix != KeyPrefix::OTHER, *exact, "{key:?}");
        }
        // The first eight keys are integer keys of arity ≤ 2, whose map
        // outputs take the prefix path; with the other three, every
        // equality test compares content.
        let store = |keys: &[(Tuple, bool)]| {
            let mut store = TupleStore::default();
            for (key, _) in keys {
                store.push_tuple(key);
            }
            store
        };
        assert!(store(&keys[..8]).ints_up_to(2));
        assert!(!store(&keys[8..9]).ints_up_to(2));
        assert!(!store(&keys[9..10]).ints_up_to(2));
        for keys in [&keys[..8], &keys[..]] {
            let pairs: Vec<(Tuple, Message)> = (0..keys.len() * 5)
                .map(|i| {
                    let key = keys[i * 7 % keys.len()].0.clone();
                    (key, Message::Tag { rel: i as u32 })
                })
                .collect();
            let check = || {
                let reference = group_reference(&pairs);
                assert_eq!(reference.len(), keys.len());
                let tasks = [20, pairs.len() - 20];
                let (groups, _, _) = group_tasks(MemBudget::UNLIMITED, &tasks, &pairs);
                assert_eq!(groups, reference);
            };
            check();
            with_forced_key_hash(3, check);
        }
    }

    #[test]
    fn message_views_read_every_shape_in_place() {
        let pairs = mixed_pairs();
        let mut batch = PairBatch::new();
        for (k, m) in &pairs {
            batch.push_pair(k, m);
        }
        let mut frame = Vec::new();
        batch.encode_into(&mut frame).unwrap();
        let decoded = PairBatch::decode(&frame).unwrap();
        for (row, (k, m)) in pairs.iter().enumerate() {
            for b in [&batch, &decoded] {
                assert_eq!(b.msg_view(row).to_message(), *m);
                assert_eq!(b.key_view(row).to_tuple(), *k);
            }
        }
    }

    fn seq_pairs(keys: &[i64]) -> Vec<(Tuple, Message)> {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| {
                (
                    Tuple::from_ints(&[k]),
                    Message::Req {
                        cond: i as u32,
                        payload: Payload::Ref {
                            guard: 0,
                            id: i as u64,
                        },
                    },
                )
            })
            .collect()
    }

    #[test]
    fn grouping_matches_the_oracle_across_budgets() {
        let keys = [3i64, 1, 3, 2, 1, 3, 1, 2, 2, 3, 1, 1];
        let pairs = seq_pairs(&keys);
        let reference = group_reference(&pairs);
        let (unlimited, stats, _) = group_batched(MemBudget::UNLIMITED, &pairs);
        assert_eq!(unlimited, reference);
        assert_eq!(stats, SpillStats::default());
        for budget in [1u64, 16, 64, 200] {
            let (groups, stats, peak) = group_batched(MemBudget::bytes(budget), &pairs);
            assert_eq!(groups, reference, "budget {budget}");
            assert!(stats.spilled_bytes > 0, "budget {budget} never spilled");
            assert!(peak <= budget, "budget {budget}: peak {peak}");
        }
    }

    #[test]
    fn mixed_type_pairs_group_like_the_oracle() {
        let pairs = mixed_pairs();
        let reference = group_reference(&pairs);
        for spec in [
            MemBudget::UNLIMITED,
            MemBudget::bytes(1),
            MemBudget::bytes(128),
        ] {
            let (groups, _, _) = group_batched(spec, &pairs);
            assert_eq!(groups, reference, "{spec:?}");
        }
    }

    #[test]
    fn many_runs_trigger_intermediate_merge_passes() {
        let keys: Vec<i64> = (0..100).map(|i| i % 5).collect();
        let pairs = seq_pairs(&keys);
        let reference = group_reference(&pairs);
        let (groups, stats, _) = group_batched(MemBudget::bytes(1), &pairs);
        assert_eq!(groups, reference);
        assert_eq!(
            stats.spill_files as usize,
            100 + stats.merge_passes as usize
        );
        assert!(
            stats.merge_passes > 0,
            "100 single-pair runs need intermediate merges"
        );
    }

    #[test]
    fn large_batch_spills_multiple_frames_per_run() {
        // More rows than ROWS_PER_FRAME in one flush: the run must carry
        // several frames and still merge correctly.
        let keys: Vec<i64> = (0..(ROWS_PER_FRAME as i64 * 3)).map(|i| i % 11).collect();
        let pairs = seq_pairs(&keys);
        let reference = group_reference(&pairs);
        // A share large enough to hold everything, then force one flush by
        // exhausting the budget exactly once via a tiny limit.
        let (groups, stats, _) = group_batched(MemBudget::bytes(40_000), &pairs);
        assert_eq!(groups, reference);
        // Whether it spilled depends on sizes; the equality is the point.
        let _ = stats;
        let (groups, stats, _) = group_batched(MemBudget::bytes(200), &pairs);
        assert_eq!(groups, reference);
        assert!(stats.spilled_bytes > 0);
    }

    /// A value of a small domain — so dictionaries repeat entries and
    /// keys repeat — a string for some draws when `strings`.
    fn value(draw: i8, strings: bool) -> Value {
        match draw {
            ..=-1 if strings => Value::str(["", "ab", "b"][(draw + 3) as usize % 3]),
            _ => Value::Int(i64::from(draw)),
        }
    }

    /// One row of a generated stream: a key arity (an index into the
    /// stream's arities), key cells, a message kind, a payload arity and
    /// payload cells.
    type RowSpec = (usize, (i8, i8, i8), u8, usize, (i8, i8, i8));

    fn row_spec() -> impl Strategy<Value = RowSpec> {
        let cells = || (-3i8..4, -3i8..4, -3i8..4);
        (0usize..2, cells(), 0u8..5, 0usize..4, cells())
    }

    /// Pair `i` of a stream over `specs` (cycled, and varied by `i` so
    /// that a long stream is not one short one repeated).
    fn stream_pair(
        specs: &[RowSpec],
        i: usize,
        arities: &[usize],
        strings: bool,
    ) -> (Tuple, Message) {
        let (which, (a, b, c), kind, payload_arity, (d, e, f)) = specs[i % specs.len()];
        let shift = (i / specs.len() % 3) as i8;
        let tuple = |cells: [i8; 3], arity: usize| -> Tuple {
            cells[..arity]
                .iter()
                .map(|&v| value(v + shift, strings))
                .collect()
        };
        let key = tuple([a, b, c], arities[which % arities.len()]);
        let payload = tuple([d, e, f], payload_arity);
        let msg = match kind {
            0 => Message::Assert { cond: i as u32 },
            1 => Message::Req {
                cond: 2,
                payload: Payload::Tuple(payload),
            },
            2 => Message::Req {
                cond: 1,
                payload: Payload::Ref {
                    guard: d as u32,
                    id: if e > 0 { i as u64 } else { 0 },
                },
            },
            3 => Message::Tag { rel: i as u32 },
            _ => Message::GuardTuple {
                guard: 7,
                tuple: payload,
            },
        };
        (key, msg)
    }

    /// Write `rows` of `batches` as one run through a [`RunSink`] on
    /// `buffers`, returning `(frames, bytes)` and the file.
    fn sink_run(
        dir: &gumbo_storage::SpillDir,
        seq: u64,
        buffers: &mut SinkBuffers,
        batches: Batches<'_>,
        rows: &[RowRef],
        pending: bool,
    ) -> ((u64, u64), Vec<u8>) {
        let path = dir.run_path(0, seq);
        let mut sink = RunSink::create(&path, buffers).unwrap();
        if pending {
            for &r in rows {
                sink.push(batches, r).unwrap();
            }
        } else {
            sink.write_rows(batches, rows).unwrap();
        }
        let written = sink.finish(batches).unwrap();
        (written, std::fs::read(&path).unwrap())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every frame of a run gathered straight from the map outputs is
        /// the encoding of a fresh batch of its rows, whatever the
        /// buffers wrote before — over keys of arity 0–3, ints and
        /// strings, every message kind, and runs of 1, 511, 512, 513 and
        /// 1 100 rows in any order, written whole (a flush) or a row at a
        /// time (a merge pass), each through buffers that last wrote a
        /// run of string keys of mixed arity. Each frame decodes to its
        /// rows, and decoding it into a batch that last held another
        /// frame gives the fresh decode.
        #[test]
        fn run_frames_are_the_encoding_of_their_rows(
            size in 0usize..5,
            tasks in 1usize..4,
            arity_pick in (0usize..4, 0usize..4),
            strings in any::<bool>(),
            specs in prop::collection::vec(row_spec(), 1usize..48),
            seed in any::<u64>(),
        ) {
            let len = [1, 511, 512, 513, 1100][size];
            let arities = [arity_pick.0, arity_pick.1];
            let mut outputs: Vec<PairBatch> = (0..tasks).map(|_| PairBatch::new()).collect();
            for i in 0..len {
                let (key, msg) = stream_pair(&specs, i, &arities, strings);
                outputs[i % tasks].push_pair(&key, &msg);
            }
            let batches = Batches::of(&outputs);
            let mut rows: Vec<RowRef> = (0..outputs.len() as u32)
                .flat_map(|batch| {
                    (0..outputs[batch as usize].len() as u32).map(move |row| RowRef { batch, row })
                })
                .collect();
            // A seeded shuffle: rows reach a run in any order.
            let mut state = seed | 1;
            for i in (1..rows.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                rows.swap(i, (state % (i as u64 + 1)) as usize);
            }
            let pairs: Vec<(Tuple, Message)> = (rows.iter())
                .map(|&r| {
                    let pair = batches.get(r);
                    (pair.key_tuple(r.row as usize), pair.message(r.row as usize))
                })
                .collect();
            let dir = gumbo_storage::SpillDir::create("run-frames").unwrap();
            let frames: Vec<Vec<u8>> = (pairs.chunks(ROWS_PER_FRAME))
                .map(|chunk| {
                    let mut fresh = PairBatch::new();
                    for (k, m) in chunk {
                        fresh.push_pair(k, m);
                    }
                    let mut frame = Vec::new();
                    fresh.encode_into(&mut frame).unwrap();
                    frame
                })
                .collect();
            let path = dir.run_path(1, 0);
            let mut writer = RunWriter::create(&path).unwrap();
            for frame in &frames {
                writer.push(frame).unwrap();
            }
            let expected = (writer.finish().unwrap(), std::fs::read(&path).unwrap());
            let warm_outputs = [mixed_batch()];
            let warm_batches = Batches::of(&warm_outputs);
            let warm_rows: Vec<RowRef> = (0..warm_outputs[0].len() as u32)
                .map(|row| RowRef { batch: 0, row })
                .collect();
            let mut buffers = SinkBuffers::default();
            for (seq, pending) in [(0, false), (1, true)] {
                sink_run(&dir, 2 + seq, &mut buffers, warm_batches, &warm_rows, pending);
                let written = sink_run(&dir, seq, &mut buffers, batches, &rows, pending);
                prop_assert_eq!(&written, &expected);
            }

            let mut reused = PairBatch::new();
            for (frame, chunk) in frames.iter().zip(pairs.chunks(ROWS_PER_FRAME)) {
                prop_assert_eq!(&PairBatch::decode(frame).unwrap().to_pairs()[..], chunk);
                for warm in [&frames[frames.len() - 1], &mixed_frame()] {
                    reused.decode_into(warm).unwrap();
                    reused.decode_into(frame).unwrap();
                    assert_same_batch(&reused, &PairBatch::decode(frame).unwrap(), frame);
                }
            }
        }
    }

    /// A batch of string keys of arity 0, 1 and 3, mixed payload arities
    /// and wide message fields.
    fn mixed_batch() -> PairBatch {
        let mut batch = PairBatch::new();
        for (k, m) in mixed_pairs() {
            batch.push_pair(&k, &m);
        }
        batch
    }

    /// The frame of [`mixed_batch`].
    fn mixed_frame() -> Vec<u8> {
        let mut frame = Vec::new();
        mixed_batch().encode_into(&mut frame).unwrap();
        frame
    }

    /// `decoded` holds exactly what the fresh decode `fresh` of `frame`
    /// holds: the same pairs and hashes, and — re-encoded — the frame
    /// itself, so no stale tag vector, dictionary entry or locator.
    fn assert_same_batch(decoded: &PairBatch, fresh: &PairBatch, frame: &[u8]) {
        assert_eq!(decoded.to_pairs(), fresh.to_pairs());
        assert_eq!(decoded.hashes(), fresh.hashes());
        for batch in [decoded, fresh] {
            let mut again = Vec::new();
            batch.encode_into(&mut again).unwrap();
            assert_eq!(again, frame);
        }
    }

    #[test]
    fn decoding_into_a_used_batch_leaves_nothing_of_its_last_frame() {
        let frame_of = |pairs: &[(Tuple, Message)]| {
            let mut batch = PairBatch::new();
            for (k, m) in pairs {
                batch.push_pair(k, m);
            }
            let mut frame = Vec::new();
            batch.encode_into(&mut frame).unwrap();
            frame
        };
        let strings3: Vec<(Tuple, Message)> = (0..40)
            .map(|i| {
                let key = Tuple::new(vec![Value::str("x"), Value::Int(i), Value::str("yz")]);
                let payload = Tuple::new(vec![Value::str("p"), Value::Int(-i)]);
                let msg = Message::GuardTuple {
                    guard: 1,
                    tuple: payload,
                };
                (key, msg)
            })
            .collect();
        let ints1: Vec<(Tuple, Message)> = (0..30)
            .map(|i| {
                let msg = Message::Req {
                    cond: 0,
                    payload: Payload::Ref { guard: 0, id: 0 },
                };
                (Tuple::from_ints(&[i % 4]), msg)
            })
            .collect();
        let frames = [
            frame_of(&strings3),
            frame_of(&ints1),
            mixed_frame(),
            frame_of(&ints1[..3]),
            frame_of(&strings3[..1]),
        ];
        let mut reused = PairBatch::new();
        for frame in frames.iter().chain(frames.iter().rev()) {
            reused.decode_into(frame).unwrap();
            assert_same_batch(&reused, &PairBatch::decode(frame).unwrap(), frame);
        }
        // A frame that fails to decode leaves the batch empty.
        assert!(reused.decode_into(&frames[0][..20]).is_err());
        assert!(reused.is_empty() && reused.hashes().is_empty());
    }

    #[test]
    fn a_run_cut_at_a_frame_boundary_is_an_error_not_a_shorter_run() {
        let keys: Vec<i64> = (0..4000).map(|i| i % 97).collect();
        let pairs = seq_pairs(&keys);
        let mut batch = PairBatch::new();
        for (k, m) in &pairs {
            batch.push_pair(k, m);
        }
        let outputs = [batch];
        let budget = MemoryBudget::new(MemBudget::bytes(16 << 10));
        let spill = ShuffleSpill::new("cut-run");
        let mut part = BatchPartition::new(0, &budget, &spill, &outputs, 1);
        let rows: Vec<u32> = (0..pairs.len() as u32).collect();
        part.push_rows(0, &rows).unwrap();
        // Keep only the first frame of the first run: what is left is a
        // well-formed run of one frame.
        let path = part.runs[0].path.clone();
        let bytes = std::fs::read(&path).unwrap();
        let first = 12 + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        assert!(first < bytes.len(), "the run holds more than one frame");
        std::fs::write(&path, &bytes[..first]).unwrap();
        let merged = part.into_groups().and_then(|(mut stream, _)| {
            let mut values = 0;
            while let Some(group) = stream.next_group()? {
                values += group.values().len();
            }
            Ok(values)
        });
        match merged {
            Err(GumboError::Storage(msg)) => assert!(msg.contains("truncated"), "{msg}"),
            other => panic!(
                "a cut run must be refused, got {other:?} of {} values",
                pairs.len()
            ),
        }
    }

    #[test]
    fn empty_partition_yields_no_groups() {
        let (groups, stats, peak) = group_batched(MemBudget::bytes(10), &[]);
        assert!(groups.is_empty());
        assert_eq!(stats, SpillStats::default());
        assert_eq!(peak, 0);
    }
}
