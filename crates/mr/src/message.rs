//! Intermediate key-value messages.
//!
//! The MSJ/1-ROUND and EVAL jobs of the paper exchange a small vocabulary
//! of messages (§4.1–§4.3):
//!
//! * `[Req r; Out ā]` — a guard fact sends request `r` of its job, which
//!   asks whether conditional facts with its join key exist, and says what
//!   to output if its formula holds;
//! * `[Assert g]` — a conditional fact of assert group `g` asserts its
//!   existence;
//! * EVAL's tag messages `⟨ā : i⟩` — "tuple ā belongs to relation Xᵢ";
//! * guard-tuple messages used when the *reference* optimization (§5.1 (2))
//!   makes EVAL re-read the guard relation.
//!
//! Byte sizes follow the paper's data layout (10 B per value) with a 4-byte
//! tag per message; a `Ref` payload is a single id value.
//!
//! Mappers emit [`MsgRef`]s, whose tuples are borrowed from the scanned
//! row; reducers read [`MsgView`]s — the same vocabulary borrowed in place
//! from the shuffle's columnar batches. No payload tuple is built on
//! either side; the owned [`Message`] is for tests and edge conversions.

use gumbo_common::{Tuple, TupleView};

/// Payload of a request message: what to output when the assert matches.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Payload {
    /// The projected output tuple itself.
    Tuple(Tuple),
    /// A reference `(guard index, tuple id)` to a guard tuple — Gumbo
    /// optimization (2): emit a tuple id rather than the tuple.
    Ref {
        /// Which guard relation (for multi-query EVAL jobs).
        guard: u32,
        /// Position of the tuple in the guard relation's canonical order.
        id: u64,
    },
}

impl Payload {
    /// Estimated wire size in bytes.
    pub fn estimated_bytes(&self) -> u64 {
        match self {
            Payload::Tuple(t) => t.estimated_bytes(),
            // One id value: matches the paper's "reference" being one field.
            Payload::Ref { .. } => 10,
        }
    }
}

/// A map-output value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Message {
    /// `[Assert g]`: a conditional fact of assert group `g` exists with
    /// this key.
    Assert {
        /// Index of the assert group within the job.
        cond: u32,
    },
    /// `[Req r; Out payload]`: output `payload` into request `r`'s target
    /// if its formula holds over the asserts at the same key.
    Req {
        /// Index of the request within the job (for MSJ, the semi-join's
        /// position in the job's group).
        cond: u32,
        /// What to emit on success.
        payload: Payload,
    },
    /// EVAL input tag: this key belongs to relation `Xᵢ`.
    Tag {
        /// Index of the `X` relation within the EVAL job.
        rel: u32,
    },
    /// EVAL guard re-read: the guard tuple identified by the key.
    GuardTuple {
        /// Which guard relation.
        guard: u32,
        /// The tuple itself.
        tuple: Tuple,
    },
}

/// Per-message fixed overhead (variant tag + small header), in bytes.
const MSG_HEADER_BYTES: u64 = 4;

impl Message {
    /// Estimated wire size in bytes (value part only; key bytes are
    /// accounted by the engine, once per message or once per packed group).
    pub fn estimated_bytes(&self) -> u64 {
        match self {
            Message::Assert { .. } | Message::Tag { .. } => MSG_HEADER_BYTES,
            Message::Req { payload, .. } => MSG_HEADER_BYTES + payload.estimated_bytes(),
            Message::GuardTuple { tuple, .. } => MSG_HEADER_BYTES + tuple.estimated_bytes(),
        }
    }
}

/// A message as a mapper emits it ([`Emitter`](crate::Emitter)):
/// [`Message`] with its tuple borrowed from the scanned row, so emitting
/// builds no `Tuple` — the shuffle copies the cells straight into its
/// columnar batch.
#[derive(Debug, Clone, Copy)]
pub enum MsgRef<'a> {
    /// [`Message::Assert`].
    Assert {
        /// Index of the assert group within the job.
        cond: u32,
    },
    /// [`Message::Req`] with [`Payload::Tuple`]`(π_positions(tuple))`.
    Req {
        /// Index of the request within the job.
        cond: u32,
        /// The row the payload is projected from.
        tuple: TupleView<'a>,
        /// The payload's coordinates within `tuple`.
        positions: &'a [usize],
    },
    /// [`Message::Req`] with a [`Payload::Ref`].
    ReqRef {
        /// Index of the request within the job.
        cond: u32,
        /// Which guard relation.
        guard: u32,
        /// Position of the tuple in the guard relation's canonical order.
        id: u64,
    },
    /// [`Message::Tag`].
    Tag {
        /// Index of the `X` relation within the EVAL job.
        rel: u32,
    },
    /// [`Message::GuardTuple`] of the whole row.
    GuardTuple {
        /// Which guard relation.
        guard: u32,
        /// The tuple itself.
        tuple: TupleView<'a>,
    },
}

/// A borrowed [`Payload`]: the payload tuple is a view into the batch
/// that carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadView<'a> {
    /// The projected output tuple.
    Tuple(TupleView<'a>),
    /// A `(guard index, tuple id)` reference.
    Ref {
        /// Which guard relation.
        guard: u32,
        /// Position of the tuple in the guard relation's canonical order.
        id: u64,
    },
}

/// A borrowed [`Message`], as a reducer reads it from the shuffle: `Copy`,
/// with tuples as views into the batch that carries the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgView<'a> {
    /// [`Message::Assert`].
    Assert {
        /// Index of the assert group within the job.
        cond: u32,
    },
    /// [`Message::Req`].
    Req {
        /// Index of the request within the job.
        cond: u32,
        /// What to emit on success.
        payload: PayloadView<'a>,
    },
    /// [`Message::Tag`].
    Tag {
        /// Index of the `X` relation within the EVAL job.
        rel: u32,
    },
    /// [`Message::GuardTuple`].
    GuardTuple {
        /// Which guard relation.
        guard: u32,
        /// The tuple itself.
        tuple: TupleView<'a>,
    },
}

impl MsgView<'_> {
    /// Materialize the owned message (tests and edge conversions).
    pub fn to_message(&self) -> Message {
        match *self {
            MsgView::Assert { cond } => Message::Assert { cond },
            MsgView::Req { cond, payload } => Message::Req {
                cond,
                payload: match payload {
                    PayloadView::Tuple(t) => Payload::Tuple(t.to_tuple()),
                    PayloadView::Ref { guard, id } => Payload::Ref { guard, id },
                },
            },
            MsgView::Tag { rel } => Message::Tag { rel },
            MsgView::GuardTuple { guard, tuple } => Message::GuardTuple {
                guard,
                tuple: tuple.to_tuple(),
            },
        }
    }
}

/// A set of the small message indices — assert groups, `X` relation tags —
/// present in one reduce group: a 64-bit mask, and a list only for
/// indices from 64 up, so the usual group allocates nothing.
#[derive(Debug, Default)]
pub struct IdSet {
    /// Bit `i` is set when index `i < 64` is present.
    low: u64,
    /// The present indices from 64 up.
    high: Vec<u32>,
}

impl IdSet {
    /// Add index `id`.
    #[inline]
    pub fn insert(&mut self, id: u32) {
        match 1u64.checked_shl(id) {
            Some(bit) => self.low |= bit,
            None if !self.high.contains(&id) => self.high.push(id),
            None => {}
        }
    }

    /// Whether no index is present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.low == 0 && self.high.is_empty()
    }

    /// Whether index `id` is present.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        match 1u64.checked_shl(id) {
            Some(bit) => self.low & bit != 0,
            None => self.high.contains(&id),
        }
    }
}

impl FromIterator<u32> for IdSet {
    #[inline]
    fn from_iter<I: IntoIterator<Item = u32>>(ids: I) -> Self {
        let mut set = IdSet::default();
        for id in ids {
            set.insert(id);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_sets_hold_indices_on_both_sides_of_64() {
        let set: IdSet = [3, 63, 64, 200, 64].into_iter().collect();
        for id in 0..300 {
            assert_eq!(set.contains(id), [3, 63, 64, 200].contains(&id), "{id}");
        }
        assert!(!set.is_empty());
        assert!(IdSet::default().is_empty());
        assert!(!IdSet::default().contains(0));
    }

    #[test]
    fn assert_is_small() {
        assert_eq!(Message::Assert { cond: 3 }.estimated_bytes(), 4);
        assert_eq!(Message::Tag { rel: 1 }.estimated_bytes(), 4);
    }

    #[test]
    fn req_with_tuple_counts_payload() {
        let m = Message::Req {
            cond: 0,
            payload: Payload::Tuple(Tuple::from_ints(&[1, 2])),
        };
        assert_eq!(m.estimated_bytes(), 4 + 20);
    }

    #[test]
    fn ref_is_cheaper_than_wide_tuple() {
        let wide = Payload::Tuple(Tuple::from_ints(&[1, 2, 3, 4]));
        let r = Payload::Ref { guard: 0, id: 17 };
        assert!(r.estimated_bytes() < wide.estimated_bytes());
    }

    #[test]
    fn guard_tuple_counts_tuple() {
        let m = Message::GuardTuple {
            guard: 0,
            tuple: Tuple::from_ints(&[1, 2, 3, 4]),
        };
        assert_eq!(m.estimated_bytes(), 44);
    }
}
