//! Columnar tuple batches: the arena-backed data plane.
//!
//! [`Tuple`] is the right *interface* for the paper's operators — an
//! immutable `ā ∈ Dⁿ` — but a poor *carrier* for the MapReduce hot path:
//! every tuple is a separate `Arc<[Value]>` heap block, so a shuffle moving
//! millions of pairs pays an allocation (and later a drop) per tuple.
//! [`TupleBatch`] keeps the same data in columnar form instead:
//!
//! * each of the `n` columns is one contiguous `Vec<i64>` cell arena —
//!   integers are stored verbatim, strings as dictionary codes;
//! * a per-batch [`StringDict`] interns every distinct `Value::Str` once,
//!   so repeated strings cost 4–8 bytes per occurrence, not a clone;
//! * per-column type tags are allocated lazily — a batch of all-integer
//!   tuples (the paper's synthetic workloads, §5.1) carries *no* per-cell
//!   type metadata at all;
//! * [`TupleView`]/[`ValueRef`] give zero-copy access to one row, with the
//!   exact same total order as [`Tuple`]/[`Value`], so sorted runs built
//!   from batches merge identically to runs of owned tuples.
//!
//! Byte accounting is unchanged from the row representation: a batch's
//! [`estimated_bytes`](TupleBatch::estimated_bytes) is the sum over rows of
//! the paper's §5.1 layout — 10 bytes per integer value
//! ([`INT_VALUE_BYTES`]), `max(len, 10)` per string — so cost-model inputs
//! and `JobStats` byte counters are identical whichever representation
//! carried the data.
//!
//! Conversion at the edges is lossless: [`TupleBatch::push_tuple`] /
//! [`TupleBatch::tuple`] round-trip every tuple (order, arity, values, and
//! estimated bytes all preserved), which the property tests in this crate
//! verify over random int/str mixes and dictionary collisions.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::sync::Arc;

use crate::error::{GumboError, Result};
use crate::tuple::Tuple;
use crate::value::{Value, INT_VALUE_BYTES};

/// Per-cell type tag: the cell holds an integer verbatim.
const TAG_INT: u8 = 0;
/// Per-cell type tag: the cell holds a [`StringDict`] code.
const TAG_STR: u8 = 1;

/// A borrowed view of one value inside a batch.
///
/// The derived ordering (`Int` before `Str`, payloads compared within a
/// variant) matches [`Value`]'s derived ordering exactly, so sorting by
/// views produces the same permutation as sorting owned values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValueRef<'a> {
    /// An integer value, copied out of the cell arena.
    Int(i64),
    /// A string value, borrowed from the batch's dictionary.
    Str(&'a str),
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> ValueRef<'a> {
        match v {
            Value::Int(i) => ValueRef::Int(*i),
            Value::Str(s) => ValueRef::Str(s),
        }
    }
}

impl ValueRef<'_> {
    /// The integer payload, if this is [`ValueRef::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            ValueRef::Int(i) => Some(*i),
            ValueRef::Str(_) => None,
        }
    }

    /// Materialize an owned [`Value`]. Allocates a fresh `Arc<str>` for
    /// strings; prefer [`TupleBatch::tuple`], which clones the dictionary's
    /// existing `Arc` instead.
    pub fn to_value(&self) -> Value {
        match self {
            ValueRef::Int(i) => Value::Int(*i),
            ValueRef::Str(s) => Value::str(s),
        }
    }

    /// Estimated bytes under the paper's §5.1 layout — identical to
    /// [`Value::estimated_bytes`].
    pub fn estimated_bytes(&self) -> u64 {
        match self {
            ValueRef::Int(_) => INT_VALUE_BYTES,
            ValueRef::Str(s) => (s.len() as u64).max(INT_VALUE_BYTES),
        }
    }
}

/// One column: a contiguous cell arena plus lazily-allocated type tags.
#[derive(Debug, Clone, Default)]
struct Column {
    /// Cell payloads: integers verbatim, string dictionary codes as `i64`.
    cells: Vec<i64>,
    /// Per-cell type tags; `None` while every cell is an integer, so
    /// all-int columns carry no per-cell metadata.
    tags: Option<Vec<u8>>,
}

impl Column {
    #[inline]
    fn push_int(&mut self, v: i64) {
        self.cells.push(v);
        if let Some(tags) = &mut self.tags {
            tags.push(TAG_INT);
        }
    }

    fn push_str_code(&mut self, code: u32) {
        self.tags
            .get_or_insert_with(|| vec![TAG_INT; self.cells.len()])
            .push(TAG_STR);
        self.cells.push(i64::from(code));
    }

    #[inline]
    fn tag(&self, row: usize) -> u8 {
        self.tags.as_ref().map_or(TAG_INT, |t| t[row])
    }

    fn clear(&mut self) {
        self.cells.clear();
        if let Some(tags) = &mut self.tags {
            tags.clear();
        }
    }
}

/// A per-batch string dictionary: every distinct `Value::Str` is stored
/// once and referenced by a dense `u32` code.
#[derive(Debug, Clone, Default)]
pub struct StringDict {
    strings: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
    /// Data-pointer fast path: the payload address of an `Arc` this
    /// dictionary itself retains in `strings`, mapped to its code. Only
    /// such addresses are cached — `strings` keeps the allocation alive
    /// for the dictionary's lifetime, so a remembered address can never
    /// be freed and reused for different content. (A pointer from an
    /// equal-content *foreign* `Arc` must not be cached: its allocation
    /// can be dropped and recycled.) Hashing a `usize` is much cheaper
    /// than hashing string bytes, and shuffles re-intern the same shared
    /// `Arc`s constantly — row copies between batches always present the
    /// source dictionary's retained instance.
    by_ptr: HashMap<usize, u32, BuildPtrHasher>,
}

/// A multiply-shift hasher for the pointer fast path: pointers are
/// already well-distributed allocation addresses, so one odd-constant
/// multiply (Fibonacci hashing) beats SipHash by an order of magnitude on
/// this hot loop. Not DoS-resistant — fine, the keys are our own heap
/// addresses, never attacker-controlled input.
#[derive(Default)]
struct PtrHasher(u64);

impl std::hash::Hasher for PtrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `write_usize` is exercised by `HashMap<usize, _>`; keep a
        // correct (if slow) fallback for completeness.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_usize(&mut self, i: usize) {
        let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

type BuildPtrHasher = std::hash::BuildHasherDefault<PtrHasher>;

impl StringDict {
    /// Intern a string, returning its code. Distinct strings get distinct
    /// codes in first-seen order; re-interning is a lookup plus at most an
    /// `Arc` clone — never a string copy.
    pub fn intern(&mut self, s: &Arc<str>) -> u32 {
        let ptr = s.as_ptr() as usize;
        if let Some(&code) = self.by_ptr.get(&ptr) {
            return code;
        }
        if let Some(&code) = self.index.get(s) {
            // Equal content in a foreign allocation: do not cache the
            // pointer — we hold no clone of *this* allocation, so its
            // address may be recycled after the caller drops it.
            return code;
        }
        let code = u32::try_from(self.strings.len()).expect("string dictionary overflow");
        self.strings.push(s.clone());
        self.index.insert(s.clone(), code);
        self.by_ptr.insert(ptr, code);
        code
    }

    /// The interned string for a code.
    ///
    /// # Panics
    /// If the code was not produced by this dictionary.
    pub fn get(&self, code: u32) -> &Arc<str> {
        &self.strings[code as usize]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when no string has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    fn clear(&mut self) {
        self.strings.clear();
        self.index.clear();
        self.by_ptr.clear();
    }
}

/// A columnar batch of same-arity tuples.
///
/// See the [module docs](self) for the layout. Batches grow by
/// [`push_tuple`](Self::push_tuple) (decomposing an owned tuple at the
/// edge), [`push_view_projected`](Self::push_view_projected) (a
/// projection of another batch's row, never built) or
/// [`push_row`](Self::push_row)/[`push_view`](Self::push_view) (copying a
/// row from another batch without materializing a `Tuple`); rows are read
/// through zero-copy [`TupleView`]s.
#[derive(Debug, Clone, Default)]
pub struct TupleBatch {
    arity: usize,
    rows: usize,
    cols: Vec<Column>,
    dict: StringDict,
    bytes: u64,
}

impl TupleBatch {
    /// An empty batch of `arity`-ary tuples.
    pub fn new(arity: usize) -> Self {
        TupleBatch {
            arity,
            rows: 0,
            cols: (0..arity).map(|_| Column::default()).collect(),
            dict: StringDict::default(),
            bytes: 0,
        }
    }

    /// The arity every row of this batch has.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Estimated bytes over all rows, under the paper's §5.1 layout —
    /// equal to the sum of `Tuple::estimated_bytes` over the same rows.
    pub fn estimated_bytes(&self) -> u64 {
        self.bytes
    }

    /// The batch's string dictionary.
    pub fn dict(&self) -> &StringDict {
        &self.dict
    }

    /// Append one owned tuple (the row-to-column edge conversion).
    ///
    /// # Panics
    /// If the tuple's arity differs from the batch's.
    pub fn push_tuple(&mut self, t: &Tuple) {
        self.push_values(t.values());
    }

    /// Append one row given as borrowed values — an owned tuple's
    /// [`Tuple::values`] or a stack array of integers; no `Tuple` needed.
    ///
    /// # Panics
    /// If the row's arity differs from the batch's.
    pub fn push_values(&mut self, values: &[Value]) {
        assert_eq!(values.len(), self.arity, "batch arity mismatch");
        for (c, v) in values.iter().enumerate() {
            self.push_cell(c, v);
        }
        self.rows += 1;
    }

    fn push_cell(&mut self, c: usize, v: &Value) {
        match v {
            Value::Int(i) => self.cols[c].push_int(*i),
            Value::Str(s) => {
                let code = self.dict.intern(s);
                self.cols[c].push_str_code(code);
            }
        }
        self.bytes += v.estimated_bytes();
    }

    /// Append row `row` of `src` (which may be `self`-shaped but a
    /// different batch). Integers are plain `i64` copies; strings re-intern
    /// the source dictionary's `Arc` (a pointer clone, never a byte copy).
    ///
    /// # Panics
    /// If the arities differ or `row` is out of bounds.
    pub fn push_row(&mut self, src: &TupleBatch, row: usize) {
        assert_eq!(src.arity, self.arity, "batch arity mismatch");
        assert!(row < src.rows, "row out of bounds");
        if src.dict.is_empty() {
            for (col, src) in self.cols.iter_mut().zip(&src.cols) {
                col.push_int(src.cells[row]);
            }
            self.bytes += INT_VALUE_BYTES * self.arity as u64;
        } else {
            for c in 0..self.arity {
                self.push_cell_from(c, src, c, row);
            }
        }
        self.rows += 1;
    }

    /// Append the row a view reads ([`push_row`](Self::push_row) of the
    /// view's batch and row).
    ///
    /// # Panics
    /// If the arities differ.
    pub fn push_view(&mut self, view: TupleView<'_>) {
        self.push_row(view.batch, view.row);
    }

    /// Append the projection of a view onto `positions` — the row
    /// `view.project(positions)` would build, copied cell by cell.
    ///
    /// # Panics
    /// If `positions.len()` differs from the batch's arity or a position
    /// is out of range.
    pub fn push_view_projected(&mut self, view: TupleView<'_>, positions: &[usize]) {
        assert_eq!(positions.len(), self.arity, "batch arity mismatch");
        let src = view.batch;
        if src.dict.is_empty() {
            for (col, &i) in self.cols.iter_mut().zip(positions) {
                col.push_int(src.cols[i].cells[view.row]);
            }
            self.bytes += INT_VALUE_BYTES * self.arity as u64;
        } else {
            for (c, &i) in positions.iter().enumerate() {
                self.push_cell_from(c, src, i, view.row);
            }
        }
        self.rows += 1;
    }

    /// Append one row of integers given as its cells: what
    /// [`push_values`](Self::push_values) of the same integers appends.
    ///
    /// # Panics
    /// If the row's arity differs from the batch's.
    #[inline]
    pub fn push_ints(&mut self, cells: &[i64]) {
        assert_eq!(cells.len(), self.arity, "batch arity mismatch");
        for (col, &cell) in self.cols.iter_mut().zip(cells) {
            col.push_int(cell);
        }
        self.bytes += INT_VALUE_BYTES * self.arity as u64;
        self.rows += 1;
    }

    /// Make room for `rows` more rows in every column, so that pushing
    /// them allocates nothing.
    pub fn reserve(&mut self, rows: usize) {
        for col in &mut self.cols {
            col.cells.reserve(rows);
            if let Some(tags) = &mut col.tags {
                tags.reserve(rows);
            }
        }
    }

    /// Append cell `(src_col, row)` of `src` to column `c`.
    #[inline]
    fn push_cell_from(&mut self, c: usize, src: &TupleBatch, src_col: usize, row: usize) {
        let col = &src.cols[src_col];
        let cell = col.cells[row];
        if col.tag(row) == TAG_INT {
            self.cols[c].push_int(cell);
            self.bytes += INT_VALUE_BYTES;
        } else {
            let s = src.dict.get(cell as u32);
            self.bytes += (s.len() as u64).max(INT_VALUE_BYTES);
            let code = self.dict.intern(s);
            self.cols[c].push_str_code(code);
        }
    }

    /// Append every row of `other`, in order. An all-integer `other`
    /// extends the cell arenas wholesale.
    ///
    /// # Panics
    /// If the arities differ.
    pub fn append(&mut self, other: &TupleBatch) {
        assert_eq!(other.arity, self.arity, "batch arity mismatch");
        if !other.dict.is_empty() {
            for row in 0..other.rows {
                self.push_row(other, row);
            }
            return;
        }
        for (col, src) in self.cols.iter_mut().zip(&other.cols) {
            col.cells.extend_from_slice(&src.cells);
            if let Some(tags) = &mut col.tags {
                tags.resize(col.cells.len(), TAG_INT);
            }
        }
        self.rows += other.rows;
        self.bytes += other.bytes;
    }

    /// Insert one owned tuple at row `at`, shifting later rows down: an
    /// O(rows) splice, for sorted relations that grow a tuple at a time.
    ///
    /// # Panics
    /// If the arity differs or `at > len()`.
    pub(crate) fn insert_values(&mut self, at: usize, values: &[Value]) {
        assert!(at <= self.rows, "row out of bounds");
        self.push_values(values);
        for col in &mut self.cols {
            col.cells[at..].rotate_right(1);
            if let Some(tags) = &mut col.tags {
                tags[at..].rotate_right(1);
            }
        }
    }

    /// Whether the rows are in strictly ascending [`Tuple`] order — sorted
    /// and duplicate-free. One comparison per adjacent pair.
    fn is_sorted_set(&self) -> bool {
        (1..self.rows).all(|r| self.view(r - 1) < self.view(r))
    }

    /// Sort the rows into [`Tuple`] order and drop duplicates: the
    /// canonical form of a relation. A batch that already is one is left
    /// as it is after one pass. Otherwise the sort compares cells, never
    /// a [`Tuple`]: integer columns compare as `i64`, and string cells by
    /// the rank of their string among the dictionary's strings in content
    /// order, so no comparison reads string bytes; a one- or two-column
    /// all-integer batch sorts its cells directly.
    pub fn sort_dedup(&mut self) {
        if self.is_sorted_set() {
            return;
        }
        if self.dict.is_empty() && self.arity <= 2 {
            self.sort_dedup_small_ints();
            return;
        }
        let ranks = self.dict_ranks();
        let mut perm: Vec<u32> = (0..self.rows as u32).collect();
        perm.sort_unstable_by(|&a, &b| self.cmp_rows(&ranks, a as usize, b as usize));
        perm.dedup_by(|b, a| self.same_row(*a as usize, *b as usize));
        self.gather(&perm);
    }

    /// [`sort_dedup`](Self::sort_dedup) of an all-integer batch of arity
    /// ≤ 2: sort and dedup the cells themselves.
    fn sort_dedup_small_ints(&mut self) {
        match self.arity {
            0 => self.rows = self.rows.min(1),
            1 => {
                let cells = &mut self.cols[0].cells;
                cells.sort_unstable();
                cells.dedup();
                self.rows = cells.len();
            }
            _ => {
                let mut pairs: Vec<(i64, i64)> = (self.cols[0].cells.iter().copied())
                    .zip(self.cols[1].cells.iter().copied())
                    .collect();
                pairs.sort_unstable();
                pairs.dedup();
                self.cols[0].cells = pairs.iter().map(|p| p.0).collect();
                self.cols[1].cells = pairs.iter().map(|p| p.1).collect();
                self.rows = pairs.len();
            }
        }
        for col in &mut self.cols {
            col.tags = None;
        }
        self.bytes = (self.rows * self.arity) as u64 * INT_VALUE_BYTES;
    }

    /// Each dictionary code's rank among the dictionary's strings in
    /// content order, so that comparing ranks compares strings.
    fn dict_ranks(&self) -> Vec<u32> {
        let mut codes: Vec<u32> = (0..self.dict.len() as u32).collect();
        codes.sort_unstable_by(|&a, &b| self.dict.get(a).cmp(self.dict.get(b)));
        let mut ranks = vec![0u32; codes.len()];
        for (rank, &code) in codes.iter().enumerate() {
            ranks[code as usize] = rank as u32;
        }
        ranks
    }

    /// Rows `a` and `b` in [`Tuple`] order, cell by cell: an integer
    /// sorts before a string, integers by value, strings by `ranks`
    /// ([`dict_ranks`](Self::dict_ranks)).
    fn cmp_rows(&self, ranks: &[u32], a: usize, b: usize) -> Ordering {
        for col in &self.cols {
            let key = |row: usize| {
                let cell = col.cells[row];
                match col.tag(row) {
                    TAG_INT => (TAG_INT, cell),
                    tag => (tag, i64::from(ranks[cell as usize])),
                }
            };
            match key(a).cmp(&key(b)) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        Ordering::Equal
    }

    /// Keep rows `perm`, in that order.
    fn gather(&mut self, perm: &[u32]) {
        for col in &mut self.cols {
            col.cells = perm.iter().map(|&r| col.cells[r as usize]).collect();
            if let Some(tags) = &mut col.tags {
                *tags = perm.iter().map(|&r| tags[r as usize]).collect();
            }
        }
        self.rows = perm.len();
        self.bytes = (0..self.rows).map(|r| self.row_bytes(r)).sum();
    }

    /// Merge sorted, duplicate-free runs of one arity into one sorted,
    /// duplicate-free batch: a k-way merge over a heap of the runs' head
    /// rows, O(rows × log runs), that drops a row equal to the last one
    /// kept, so a tuple present in several runs is kept once. A single run
    /// is returned as it is.
    ///
    /// # Panics
    /// If a run's arity differs from `arity`.
    pub fn merge_sorted(arity: usize, mut runs: Vec<TupleBatch>) -> TupleBatch {
        runs.retain(|run| !run.is_empty());
        if runs.len() <= 1 {
            return runs.pop().unwrap_or_else(|| TupleBatch::new(arity));
        }
        let mut out = TupleBatch::new(arity);
        let mut heads: BinaryHeap<Reverse<TupleView<'_>>> =
            runs.iter().map(|run| Reverse(run.view(0))).collect();
        while let Some(Reverse(head)) = heads.pop() {
            if out.rows == 0 || out.view(out.rows - 1) != head {
                out.push_view(head);
            }
            if head.row + 1 < head.batch.rows {
                heads.push(Reverse(head.batch.view(head.row + 1)));
            }
        }
        out
    }

    /// Index of the row equal to `values` (`Ok`), or where it would be
    /// inserted (`Err`), in a batch sorted by [`Tuple`] order.
    pub(crate) fn binary_search(&self, values: &[Value]) -> std::result::Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.rows);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.view(mid).cmp_values(values) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Column `c`'s cells when every one of them is an integer (the
    /// column carries no string), else `None`.
    ///
    /// # Panics
    /// If `c` is not a column of the batch.
    pub fn int_column(&self, c: usize) -> Option<&[i64]> {
        let col = &self.cols[c];
        (col.tags.is_none() || self.dict.is_empty()).then_some(col.cells.as_slice())
    }

    /// Zero-copy view of one row.
    ///
    /// # Panics
    /// If `row` is out of bounds.
    #[inline]
    pub fn view(&self, row: usize) -> TupleView<'_> {
        assert!(row < self.rows, "row out of bounds");
        TupleView { batch: self, row }
    }

    /// Whether rows `a` and `b` hold equal tuples, decided on raw cells:
    /// the batch's one dictionary interns each distinct string once, so
    /// equal codes are equal strings and no string byte is read.
    ///
    /// # Panics
    /// If `a` or `b` is out of bounds.
    pub fn same_row(&self, a: usize, b: usize) -> bool {
        assert!(a < self.rows && b < self.rows, "row out of bounds");
        self.cols
            .iter()
            .all(|col| col.cells[a] == col.cells[b] && col.tag(a) == col.tag(b))
    }

    /// Materialize row `row` as an owned [`Tuple`]. String fields clone the
    /// dictionary's `Arc<str>` (a refcount bump, not a copy); the whole
    /// tuple is a single `Arc<[Value]>` allocation.
    pub fn tuple(&self, row: usize) -> Tuple {
        assert!(row < self.rows, "row out of bounds");
        (0..self.arity).map(|c| self.value(c, row)).collect()
    }

    /// The owned value of column `c` at row `row`: an integer copy, or a
    /// clone of the dictionary's `Arc<str>`.
    fn value(&self, c: usize, row: usize) -> Value {
        let cell = self.cols[c].cells[row];
        if self.cols[c].tag(row) == TAG_INT {
            Value::Int(cell)
        } else {
            Value::Str(self.dict.get(cell as u32).clone())
        }
    }

    /// Estimated bytes of one row (paper layout), equal to
    /// `self.tuple(row).estimated_bytes()` without materializing.
    #[inline]
    pub fn row_bytes(&self, row: usize) -> u64 {
        if self.dict.is_empty() {
            // No string: every cell is an integer.
            debug_assert!(row < self.rows, "row out of bounds");
            return INT_VALUE_BYTES * self.arity as u64;
        }
        (0..self.arity)
            .map(|c| {
                let cell = self.cols[c].cells[row];
                if self.cols[c].tag(row) == TAG_INT {
                    INT_VALUE_BYTES
                } else {
                    (self.dict.get(cell as u32).len() as u64).max(INT_VALUE_BYTES)
                }
            })
            .sum()
    }

    /// Materialize every row (edge conversion back to the row world).
    pub fn to_tuples(&self) -> Vec<Tuple> {
        (0..self.rows).map(|r| self.tuple(r)).collect()
    }

    /// Project every row onto `positions` — pure column slicing: selected
    /// cell arenas (and their tag vectors) are copied wholesale with
    /// `memcpy`, no per-row or per-value work. The dictionary is cloned
    /// only when a selected column actually holds strings.
    ///
    /// Row `i` of the result equals `self.tuple(i).project(positions)`.
    pub fn project(&self, positions: &[usize]) -> TupleBatch {
        let cols: Vec<Column> = positions.iter().map(|&i| self.cols[i].clone()).collect();
        let any_str = cols.iter().any(|c| c.tags.is_some());
        let mut out = TupleBatch {
            arity: positions.len(),
            rows: self.rows,
            cols,
            dict: if any_str {
                self.dict.clone()
            } else {
                StringDict::default()
            },
            bytes: 0,
        };
        out.bytes = (0..out.rows).map(|r| out.row_bytes(r)).sum();
        out
    }

    /// Drop every row but keep the cell arenas' capacity for reuse.
    pub fn clear(&mut self) {
        for col in &mut self.cols {
            col.clear();
        }
        self.dict.clear();
        self.rows = 0;
        self.bytes = 0;
    }

    /// Append the batch's wire encoding to `out`: its bytes are a function
    /// of its rows alone.
    ///
    /// Layout (all integers little-endian):
    ///
    /// ```text
    /// [arity u32] [rows u32]
    /// [dict_len u32] dict_len × ( [len u32] [utf-8 bytes] )
    /// arity × ( [has_tags u8] rows × [cell i64] { rows × [tag u8] if has_tags } )
    /// ```
    ///
    /// The dictionary holds the strings the rows use, in first-seen order
    /// (row by row, left to right); a column carries tags only if it holds
    /// a string.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<()> {
        self.encode_range_into(0..self.rows, out)
    }

    /// Append the wire encoding of rows `range` alone — what
    /// [`encode_into`](Self::encode_into) writes for a batch of just those
    /// rows ([`encode_views_into`](Self::encode_views_into) of their views).
    ///
    /// # Panics
    /// If `range` is out of bounds.
    pub fn encode_range_into(
        &self,
        range: std::ops::Range<usize>,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        assert!(
            range.start <= range.end && range.end <= self.rows,
            "range out of bounds"
        );
        let rows = range.map(|row| self.view(row));
        let strings = !self.dict.is_empty();
        Self::encode_views_into(self.arity, rows, strings, &mut StringDict::default(), out)
    }

    /// Append what [`encode_into`](Self::encode_into) writes for a batch of
    /// `arity` holding the rows the views read, in order — without building
    /// it: each column's cells are gathered straight from the views'
    /// batches into `out`, and a column that met a string gets its header
    /// patched and its tags appended. This is the one writer of the layout.
    ///
    /// `dict` is scratch for the frame's dictionary. `strings: false`
    /// promises that no view's batch holds a string (its dictionary is
    /// empty), which skips the pass that builds the dictionary.
    ///
    /// # Panics
    /// If a view's arity differs from `arity`, or `strings` is false and a
    /// view reads a string.
    pub fn encode_views_into<'v>(
        arity: usize,
        rows: impl Iterator<Item = TupleView<'v>> + Clone,
        strings: bool,
        dict: &mut StringDict,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        dict.clear();
        let len = match rows.size_hint() {
            (lo, Some(hi)) if lo == hi && !strings => lo,
            _ => {
                let mut len = 0usize;
                for view in rows.clone() {
                    len += 1;
                    if view.batch.dict.is_empty() {
                        continue;
                    }
                    for col in &view.batch.cols {
                        if col.tag(view.row) == TAG_STR {
                            dict.intern(view.batch.dict.get(col.cells[view.row] as u32));
                        }
                    }
                }
                len
            }
        };
        let len = u32::try_from(len)
            .map_err(|_| GumboError::Storage("columnar frame exceeds 2^32 rows".into()))?;
        out.extend_from_slice(&(arity as u32).to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&(dict.len() as u32).to_le_bytes());
        for s in &dict.strings {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        let len = len as usize;
        out.reserve(arity * (len * 9 + 1));
        for c in 0..arity {
            let header = out.len();
            out.push(0);
            let start = out.len();
            out.resize(start + 8 * len, 0);
            let mut tagged = false;
            for (bytes, view) in out[start..].chunks_exact_mut(8).zip(rows.clone()) {
                assert_eq!(view.batch.arity, arity, "batch arity mismatch");
                let col = &view.batch.cols[c];
                let cell = col.cells[view.row];
                let cell = match col.tag(view.row) {
                    TAG_INT => cell,
                    _ => {
                        assert!(strings, "a string where none was promised");
                        tagged = true;
                        i64::from(dict.intern(view.batch.dict.get(cell as u32)))
                    }
                };
                bytes.copy_from_slice(&cell.to_le_bytes());
            }
            if tagged {
                out[header] = 1;
                out.extend(rows.clone().map(|view| view.batch.cols[c].tag(view.row)));
            }
        }
        Ok(())
    }

    /// Decode one batch starting at `*pos` in `buf`, advancing `*pos` past
    /// it. Rejects corrupt input (truncation, bad tags, out-of-range
    /// dictionary codes, repeated dictionary entries, non-UTF-8 strings)
    /// instead of guessing.
    pub fn decode_from(buf: &[u8], pos: &mut usize) -> Result<TupleBatch> {
        let mut batch = TupleBatch::default();
        batch.decode_into(buf, pos)?;
        Ok(batch)
    }

    /// [`decode_from`](Self::decode_from) into this batch, whatever it held
    /// before, reusing its cell arenas: a batch that is decoded into frame
    /// after frame allocates only to grow. Nothing of the old content
    /// survives — no tag vector, dictionary entry or column beyond the new
    /// arity. On error the batch is left empty.
    pub fn decode_into(&mut self, buf: &[u8], pos: &mut usize) -> Result<()> {
        let decoded = self.decode_fields(buf, pos);
        if decoded.is_err() {
            *self = TupleBatch::default();
        }
        decoded
    }

    fn decode_fields(&mut self, buf: &[u8], pos: &mut usize) -> Result<()> {
        self.dict.clear();
        self.rows = 0;
        self.bytes = 0;
        let arity = read_u32(buf, pos)? as usize;
        let rows = read_u32(buf, pos)? as usize;
        let dict_len = read_u32(buf, pos)? as usize;
        for code in 0..dict_len {
            let len = read_u32(buf, pos)? as usize;
            let bytes = read_bytes(buf, pos, len)?;
            let s = std::str::from_utf8(bytes).map_err(|_| {
                GumboError::Storage("corrupt columnar frame: non-UTF-8 dictionary entry".into())
            })?;
            // Codes are positional: interning in frame order reproduces
            // them only while every entry is new. A repeat would shift every
            // later code onto a different string.
            if self.dict.intern(&Arc::from(s)) as usize != code {
                return Err(GumboError::Storage(
                    "corrupt columnar frame: repeated dictionary entry".into(),
                ));
            }
        }
        // Every column reads at least its header byte, and its cells only
        // once the frame holds them all, so a corrupt count runs into
        // "truncated" instead of an absurd allocation.
        self.cols.truncate(arity);
        let mut bytes_total = 0u64;
        for c in 0..arity {
            let has_tags = match read_u8(buf, pos)? {
                0 => false,
                1 => true,
                other => {
                    return Err(GumboError::Storage(format!(
                        "corrupt columnar frame: bad column header {other}"
                    )))
                }
            };
            let raw = read_bytes(buf, pos, rows.saturating_mul(8))?;
            if c == self.cols.len() {
                self.cols.push(Column::default());
            }
            let col = &mut self.cols[c];
            col.cells.clear();
            col.cells.extend(
                raw.chunks_exact(8)
                    .map(|w| i64::from_le_bytes(w.try_into().expect("8 bytes"))),
            );
            if !has_tags {
                col.tags = None;
                bytes_total += rows as u64 * INT_VALUE_BYTES;
                continue;
            }
            let raw = read_bytes(buf, pos, rows)?;
            for (tag, cell) in raw.iter().zip(&col.cells) {
                bytes_total += match *tag {
                    TAG_INT => INT_VALUE_BYTES,
                    TAG_STR => {
                        if *cell < 0 || *cell as usize >= self.dict.len() {
                            return Err(GumboError::Storage(
                                "corrupt columnar frame: string code out of range".into(),
                            ));
                        }
                        (self.dict.get(*cell as u32).len() as u64).max(INT_VALUE_BYTES)
                    }
                    other => {
                        return Err(GumboError::Storage(format!(
                            "corrupt columnar frame: unknown cell tag {other}"
                        )))
                    }
                };
            }
            let tags = col.tags.get_or_insert_with(Vec::new);
            tags.clear();
            tags.extend_from_slice(raw);
        }
        self.arity = arity;
        self.rows = rows;
        self.bytes = bytes_total;
        Ok(())
    }
}

/// Batches are equal when they hold equal rows in the same order; string
/// cells compare by content, whatever their dictionary codes.
impl PartialEq for TupleBatch {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity
            && self.rows == other.rows
            && (0..self.rows).all(|r| self.view(r) == other.view(r))
    }
}

impl Eq for TupleBatch {}

fn read_u8(buf: &[u8], pos: &mut usize) -> Result<u8> {
    let b = *buf
        .get(*pos)
        .ok_or_else(|| GumboError::Storage("truncated columnar frame".into()))?;
    *pos += 1;
    Ok(b)
}

/// Read a little-endian `u32` of a columnar frame at `*pos`, advancing
/// past it; a frame that ends first is "truncated".
pub fn read_u32(buf: &[u8], pos: &mut usize) -> Result<u32> {
    let bytes = read_bytes(buf, pos, 4)?;
    Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
}

/// Read `len` bytes of a columnar frame at `*pos`, advancing past them; a
/// frame that ends first is "truncated".
pub fn read_bytes<'a>(buf: &'a [u8], pos: &mut usize, len: usize) -> Result<&'a [u8]> {
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| GumboError::Storage("truncated columnar frame".into()))?;
    let out = &buf[*pos..end];
    *pos = end;
    Ok(out)
}

/// A zero-copy view of one row of a [`TupleBatch`].
///
/// Views are `Copy` (a batch pointer plus a row index) and totally ordered
/// with exactly [`Tuple`]'s derived order — element-wise [`Value`]
/// comparison with shorter-tuple tiebreak — including across *different*
/// batches (string cells compare by content, not by dictionary code).
#[derive(Clone, Copy)]
pub struct TupleView<'a> {
    batch: &'a TupleBatch,
    row: usize,
}

impl<'a> TupleView<'a> {
    /// The row's arity.
    #[inline]
    pub fn arity(&self) -> usize {
        self.batch.arity
    }

    /// The value at position `i`.
    ///
    /// # Panics
    /// If `i >= arity`.
    #[inline]
    pub fn value(&self, i: usize) -> ValueRef<'a> {
        let col = &self.batch.cols[i];
        let cell = col.cells[self.row];
        if col.tag(self.row) == TAG_INT {
            ValueRef::Int(cell)
        } else {
            ValueRef::Str(self.batch.dict.get(cell as u32))
        }
    }

    /// The value at position `i`, or `None` past the arity.
    pub fn get(&self, i: usize) -> Option<ValueRef<'a>> {
        (i < self.arity()).then(|| self.value(i))
    }

    /// Compare the row with an owned row given as values, in [`Tuple`]
    /// order (element-wise, then shorter first).
    pub(crate) fn cmp_values(&self, values: &[Value]) -> Ordering {
        self.values().cmp(values.iter().map(ValueRef::from))
    }

    /// The row's cells as integers by position, when its batch holds no
    /// string — an empty dictionary means every cell is an integer, so
    /// reading one takes no tag; `None` otherwise.
    #[inline]
    pub fn int_cells(&self) -> Option<impl Fn(usize) -> i64 + 'a> {
        let (batch, row) = (self.batch, self.row);
        batch
            .dict
            .is_empty()
            .then_some(move |c: usize| batch.cols[c].cells[row])
    }

    /// Iterate the row's values left to right.
    pub fn values(&self) -> impl Iterator<Item = ValueRef<'a>> + 'a {
        let view = *self;
        (0..view.batch.arity).map(move |i| view.value(i))
    }

    /// Materialize the row as an owned [`Tuple`] (one allocation; string
    /// fields bump the dictionary `Arc`s).
    pub fn to_tuple(&self) -> Tuple {
        self.batch.tuple(self.row)
    }

    /// Project the row onto `positions` as an owned [`Tuple`] — what
    /// `self.to_tuple().project(positions)` returns, in one allocation and
    /// without the intermediate tuple.
    ///
    /// # Panics
    /// If a position is out of range.
    pub fn project(&self, positions: &[usize]) -> Tuple {
        positions
            .iter()
            .map(|&c| self.batch.value(c, self.row))
            .collect()
    }

    /// Estimated bytes of the row under the paper's layout.
    pub fn estimated_bytes(&self) -> u64 {
        self.batch.row_bytes(self.row)
    }
}

impl PartialEq for TupleView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for TupleView<'_> {}

impl PartialOrd for TupleView<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TupleView<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Lexicographic with length tiebreak: identical to the derived
        // `Ord` on `Tuple`'s `Arc<[Value]>`. Two all-integer batches
        // compare raw cells (an empty dictionary means no string cell).
        let (a, b) = (self.batch, other.batch);
        if a.dict.is_empty() && b.dict.is_empty() {
            for (ca, cb) in a.cols.iter().zip(&b.cols) {
                match ca.cells[self.row].cmp(&cb.cells[other.row]) {
                    Ordering::Equal => {}
                    unequal => return unequal,
                }
            }
            return a.arity.cmp(&b.arity);
        }
        self.values().cmp(other.values())
    }
}

/// The same text as [`Tuple`]'s `Display`: `(1, "a")`.
impl fmt::Display for TupleView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// The same text as [`Value`]'s `Display`.
impl fmt::Display for ValueRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRef::Int(i) => write!(f, "{i}"),
            ValueRef::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl fmt::Debug for TupleView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.values()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_tuples() -> Vec<Tuple> {
        vec![
            Tuple::new(vec![Value::Int(3), Value::str("carrier"), Value::Int(-1)]),
            Tuple::new(vec![Value::Int(1), Value::str("bad"), Value::Int(7)]),
            Tuple::new(vec![Value::Int(3), Value::str("bad"), Value::Int(9)]),
            Tuple::new(vec![
                Value::str("bad"),
                Value::str("bad"),
                Value::Int(i64::MIN),
            ]),
        ]
    }

    #[test]
    fn push_and_materialize_round_trip() {
        let tuples = mixed_tuples();
        let mut batch = TupleBatch::new(3);
        for t in &tuples {
            batch.push_tuple(t);
        }
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.to_tuples(), tuples);
        assert_eq!(
            batch.estimated_bytes(),
            tuples.iter().map(Tuple::estimated_bytes).sum::<u64>()
        );
        for (i, t) in tuples.iter().enumerate() {
            assert_eq!(batch.row_bytes(i), t.estimated_bytes());
        }
    }

    #[test]
    fn dictionary_interns_each_distinct_string_once() {
        let mut batch = TupleBatch::new(1);
        for s in ["x", "y", "x", "x", "y"] {
            batch.push_tuple(&Tuple::new(vec![Value::str(s)]));
        }
        assert_eq!(batch.dict().len(), 2);
        assert_eq!(
            batch.to_tuples(),
            ["x", "y", "x", "x", "y"]
                .iter()
                .map(|s| Tuple::new(vec![Value::str(s)]))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn all_int_batches_carry_no_tags() {
        let mut batch = TupleBatch::new(2);
        for i in 0..100 {
            batch.push_tuple(&Tuple::from_ints(&[i, i * 2]));
        }
        assert!(batch.cols.iter().all(|c| c.tags.is_none()));
        assert!(batch.dict().is_empty());
        assert_eq!(batch.estimated_bytes(), 100 * 2 * INT_VALUE_BYTES);
    }

    #[test]
    fn view_order_matches_tuple_order() {
        let tuples = mixed_tuples();
        let mut batch = TupleBatch::new(3);
        for t in &tuples {
            batch.push_tuple(t);
        }
        let mut by_view: Vec<usize> = (0..tuples.len()).collect();
        by_view.sort_by(|&a, &b| batch.view(a).cmp(&batch.view(b)));
        let mut by_tuple: Vec<usize> = (0..tuples.len()).collect();
        by_tuple.sort_by(|&a, &b| tuples[a].cmp(&tuples[b]));
        assert_eq!(by_view, by_tuple);
    }

    #[test]
    fn views_compare_across_batches_by_content() {
        let mut a = TupleBatch::new(1);
        let mut b = TupleBatch::new(1);
        // Same string, different dictionary codes (b interned "z" first).
        a.push_tuple(&Tuple::new(vec![Value::str("same")]));
        b.push_tuple(&Tuple::new(vec![Value::str("z")]));
        b.push_tuple(&Tuple::new(vec![Value::str("same")]));
        assert_eq!(a.view(0), b.view(1));
        assert!(a.view(0) < b.view(0));
    }

    #[test]
    fn same_row_is_tuple_equality_on_raw_cells() {
        // Int 0 and the string with dictionary code 0 share a cell payload;
        // only the tag tells them apart.
        let rows = [
            Tuple::new(vec![Value::str("a"), Value::Int(1)]),
            Tuple::new(vec![Value::Int(0), Value::Int(1)]),
            Tuple::new(vec![Value::str("b"), Value::Int(1)]),
            Tuple::new(vec![Value::str("a"), Value::Int(1)]),
            Tuple::new(vec![Value::Int(0), Value::Int(1)]),
        ];
        let mut batch = TupleBatch::new(2);
        for t in &rows {
            batch.push_tuple(t);
        }
        for a in 0..rows.len() {
            for b in 0..rows.len() {
                assert_eq!(batch.same_row(a, b), rows[a] == rows[b], "{a} vs {b}");
            }
        }
    }

    #[test]
    fn push_row_copies_between_batches() {
        let tuples = mixed_tuples();
        let mut src = TupleBatch::new(3);
        for t in &tuples {
            src.push_tuple(t);
        }
        let mut dst = TupleBatch::new(3);
        for row in [3, 1, 1, 0] {
            dst.push_row(&src, row);
        }
        assert_eq!(
            dst.to_tuples(),
            vec![
                tuples[3].clone(),
                tuples[1].clone(),
                tuples[1].clone(),
                tuples[0].clone()
            ]
        );
        assert_eq!(
            dst.estimated_bytes(),
            [3usize, 1, 1, 0]
                .iter()
                .map(|&i| tuples[i].estimated_bytes())
                .sum::<u64>()
        );
    }

    #[test]
    fn integer_rows_copy_cell_by_cell_whatever_the_tags() {
        // A source that held strings keeps its tags through `clear()`,
        // with an empty dictionary: its rows are integers only.
        let mut src = TupleBatch::new(3);
        src.push_tuple(&Tuple::new(vec![
            Value::str("a"),
            Value::Int(1),
            Value::str("b"),
        ]));
        assert!(src.view(0).int_cells().is_none(), "a row beside a string");
        src.clear();
        let ints = Tuple::from_ints(&[7, -1, i64::MAX]);
        src.push_tuple(&ints);
        let cell = src.view(0).int_cells().expect("no string left");
        assert_eq!([cell(0), cell(1), cell(2)], [7, -1, i64::MAX]);
        assert_eq!(src.row_bytes(0), ints.estimated_bytes());
        // Targets that hold a string: each copy is the row it reads.
        let mut dst = TupleBatch::new(3);
        dst.push_tuple(&mixed_tuples()[0]);
        dst.push_row(&src, 0);
        dst.push_ints(&[7, -1, i64::MAX]);
        let mut projected = TupleBatch::new(2);
        projected.push_values(&[Value::str("z"), Value::Int(0)]);
        projected.push_view_projected(src.view(0), &[2, 0]);
        assert_eq!(dst.to_tuples()[1..], [ints.clone(), ints.clone()]);
        assert_eq!(projected.tuple(1), ints.project(&[2, 0]));
        assert_eq!(
            dst.estimated_bytes(),
            mixed_tuples()[0].estimated_bytes() + 2 * ints.estimated_bytes()
        );
        assert_eq!(dst.row_bytes(2), ints.estimated_bytes());
    }

    #[test]
    fn view_projection_equals_tuple_projection() {
        let tuples = mixed_tuples();
        let mut batch = TupleBatch::new(3);
        for t in &tuples {
            batch.push_tuple(t);
        }
        for positions in [&[][..], &[1], &[2, 0], &[1, 1, 0]] {
            for (row, t) in tuples.iter().enumerate() {
                assert_eq!(batch.view(row).project(positions), t.project(positions));
            }
        }
    }

    #[test]
    fn projection_is_column_slicing() {
        let tuples = mixed_tuples();
        let mut batch = TupleBatch::new(3);
        for t in &tuples {
            batch.push_tuple(t);
        }
        let proj = batch.project(&[2, 0]);
        assert_eq!(proj.arity(), 2);
        assert_eq!(
            proj.to_tuples(),
            tuples
                .iter()
                .map(|t| t.project(&[2, 0]))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            proj.estimated_bytes(),
            tuples
                .iter()
                .map(|t| t.project(&[2, 0]).estimated_bytes())
                .sum::<u64>()
        );
    }

    #[test]
    fn int_only_projection_of_int_batch_has_no_dict() {
        let mut batch = TupleBatch::new(3);
        for i in 0..10 {
            batch.push_tuple(&Tuple::from_ints(&[i, i + 1, i + 2]));
        }
        let proj = batch.project(&[0, 2]);
        assert!(proj.dict().is_empty());
        assert!(proj.cols.iter().all(|c| c.tags.is_none()));
        assert_eq!(
            proj.to_tuples(),
            (0..10)
                .map(|i| Tuple::from_ints(&[i, i + 2]))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn nullary_batches_count_rows() {
        let mut batch = TupleBatch::new(0);
        let unit = Tuple::new(vec![]);
        batch.push_tuple(&unit);
        batch.push_tuple(&unit);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.estimated_bytes(), 0);
        assert_eq!(batch.to_tuples(), vec![unit.clone(), unit]);
    }

    #[test]
    fn encode_decode_round_trip() {
        let tuples = mixed_tuples();
        let mut batch = TupleBatch::new(3);
        for t in &tuples {
            batch.push_tuple(t);
        }
        let mut buf = Vec::new();
        batch.encode_into(&mut buf).unwrap();
        let mut pos = 0;
        let back = TupleBatch::decode_from(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(back.to_tuples(), tuples);
        assert_eq!(back.estimated_bytes(), batch.estimated_bytes());
    }

    #[test]
    fn decode_rejects_truncation_and_bad_codes() {
        let mut batch = TupleBatch::new(1);
        batch.push_tuple(&Tuple::new(vec![Value::str("q")]));
        let mut buf = Vec::new();
        batch.encode_into(&mut buf).unwrap();
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(
                TupleBatch::decode_from(&buf[..cut], &mut pos).is_err(),
                "truncation at {cut} accepted"
            );
        }
        // Corrupt the string code (last 8 cell bytes before the tag byte).
        let mut bad = buf.clone();
        let cell_at = bad.len() - 1 - 8;
        bad[cell_at..cell_at + 8].copy_from_slice(&99i64.to_le_bytes());
        let mut pos = 0;
        let err = TupleBatch::decode_from(&bad, &mut pos).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");

        // A dictionary that repeats an entry: ["q", "r"] becomes ["q", "q"],
        // which would re-map code 1 onto "q" if interning were trusted.
        let mut two = TupleBatch::new(1);
        for s in ["q", "r"] {
            two.push_tuple(&Tuple::new(vec![Value::str(s)]));
        }
        let mut buf = Vec::new();
        two.encode_into(&mut buf).unwrap();
        let r_at = 12 + 4 + 1 + 4; // header, "q" entry, length of "r"
        assert_eq!(buf[r_at], b'r');
        buf[r_at] = b'q';
        let mut pos = 0;
        let err = TupleBatch::decode_from(&buf, &mut pos).unwrap_err();
        assert!(
            err.to_string().contains("repeated dictionary entry"),
            "{err}"
        );
    }

    #[test]
    fn clear_retains_capacity_and_resets_accounting() {
        let mut batch = TupleBatch::new(2);
        batch.push_tuple(&Tuple::new(vec![Value::Int(1), Value::str("s")]));
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.estimated_bytes(), 0);
        assert!(batch.dict().is_empty());
        batch.push_tuple(&Tuple::from_ints(&[4, 5]));
        assert_eq!(batch.to_tuples(), vec![Tuple::from_ints(&[4, 5])]);
    }
}
