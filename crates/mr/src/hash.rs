//! Deterministic hashing for reducer partitioning.
//!
//! `std`'s default hasher is randomized per process, which would make
//! simulated schedules (and therefore reported times) non-reproducible.
//! We use FNV-1a over a canonical byte rendering of the key instead.

use gumbo_common::{Tuple, TupleView, ValueRef};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a hash of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Deterministic hash of a key tuple.
pub fn hash_tuple(tuple: &Tuple) -> u64 {
    hash_values(tuple.values().iter().map(ValueRef::from))
}

/// Deterministic hash of a columnar key view — the same mixing as
/// [`hash_tuple`], so `hash_view(batch.view(r))` always equals
/// `hash_tuple(&batch.tuple(r))`.
pub fn hash_view(view: TupleView<'_>) -> u64 {
    hash_values(view.values())
}

/// [`hash_view`] of a row of integers given as its cells: the same bytes
/// mixed, without a value's type to branch on.
pub fn hash_ints(cells: impl Iterator<Item = i64>) -> u64 {
    let mut h = FNV_OFFSET;
    for cell in cells {
        // The type byte of an integer is 0, and `h ^ 0` is `h`.
        h = h.wrapping_mul(FNV_PRIME);
        for b in cell.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// FNV-1a over a canonical byte rendering of the values: a type byte,
/// then an integer's little-endian bytes or a string's bytes and a `0xff`
/// terminator.
fn hash_values<'a>(values: impl Iterator<Item = ValueRef<'a>>) -> u64 {
    let mut h = FNV_OFFSET;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    for v in values {
        match v {
            ValueRef::Int(i) => {
                mix(&[0u8]);
                mix(&i.to_le_bytes());
            }
            ValueRef::Str(s) => {
                mix(&[1u8]);
                mix(s.as_bytes());
                mix(&[0xff]);
            }
        }
    }
    h
}

/// Reducer index for a key under `r` reducers.
pub fn partition(tuple: &Tuple, reducers: usize) -> usize {
    partition_of(hash_tuple(tuple), reducers)
}

/// Reducer index for an already computed key hash ([`hash_tuple`] /
/// [`hash_view`]) under `r` reducers.
pub fn partition_of(hash: u64, reducers: usize) -> usize {
    debug_assert!(reducers > 0);
    (hash % reducers as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use gumbo_common::Value;

    #[test]
    fn integer_rows_hash_from_their_cells_as_their_views_do() {
        for cells in [&[][..], &[0], &[-1, i64::MAX], &[7, i64::MIN, 3]] {
            let t = Tuple::from_ints(cells);
            assert_eq!(
                hash_ints(cells.iter().copied()),
                hash_tuple(&t),
                "{cells:?}"
            );
        }
    }

    #[test]
    fn hashing_is_deterministic() {
        let t = Tuple::from_ints(&[1, 2, 3]);
        assert_eq!(hash_tuple(&t), hash_tuple(&t.clone()));
    }

    #[test]
    fn different_tuples_differ() {
        assert_ne!(
            hash_tuple(&Tuple::from_ints(&[1])),
            hash_tuple(&Tuple::from_ints(&[2]))
        );
        // Int 1 and string "1" must not collide by construction (type tags).
        assert_ne!(
            hash_tuple(&Tuple::from_ints(&[1])),
            hash_tuple(&Tuple::new(vec![Value::str("1")]))
        );
    }

    #[test]
    fn partition_in_range() {
        for i in 0..100 {
            let p = partition(&Tuple::from_ints(&[i]), 7);
            assert!(p < 7);
        }
    }

    #[test]
    fn partition_spreads_keys() {
        // All 100 keys on one of 10 reducers would indicate a broken hash.
        let mut counts = [0usize; 10];
        for i in 0..100 {
            counts[partition(&Tuple::from_ints(&[i]), 10)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "unbalanced: {counts:?}");
    }

    #[test]
    fn view_hash_matches_tuple_hash() {
        use gumbo_common::TupleBatch;
        let tuples = [
            Tuple::from_ints(&[]),
            Tuple::from_ints(&[1, -2, i64::MAX]),
            Tuple::new(vec![Value::str("1"), Value::Int(1), Value::str("")]),
        ];
        for t in &tuples {
            let mut batch = TupleBatch::new(t.arity());
            batch.push_tuple(t);
            assert_eq!(hash_view(batch.view(0)), hash_tuple(t), "{t}");
        }
        // Many rows sharing one dictionary: strings hash by content,
        // whatever their codes.
        let keys: Vec<Tuple> = (0..50)
            .map(|i| match i % 3 {
                0 => Tuple::new(vec![Value::str(format!("k{i}")), Value::Int(i)]),
                _ => Tuple::from_ints(&[i, i * i]),
            })
            .collect();
        let mut batch = TupleBatch::new(2);
        for k in &keys {
            batch.push_tuple(k);
        }
        for (row, k) in keys.iter().enumerate() {
            assert_eq!(hash_view(batch.view(row)), hash_tuple(k), "{k}");
        }
    }

    #[test]
    fn fnv_known_value() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(fnv1a(b""), FNV_OFFSET);
    }
}
