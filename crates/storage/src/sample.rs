//! Reservoir sampling of stored relations.
//!
//! Gumbo estimates intermediate (map-output) data sizes by "simulation of
//! the map function on a sample of the input relations" (§5.1, optimization
//! (3)). This module provides the deterministic sampling primitive; the
//! simulation itself lives in `gumbo-core::planner::sampling`.

use gumbo_common::{Relation, Tuple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draw a uniform sample of up to `k` tuples from `relation` using
/// Algorithm R (reservoir sampling) with a fixed seed for reproducibility.
///
/// Returns all tuples when the relation has at most `k`.
pub fn reservoir_sample(relation: &Relation, k: usize, seed: u64) -> Vec<Tuple> {
    if k == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reservoir: Vec<Tuple> = Vec::with_capacity(k);
    for (i, tuple) in relation.iter().enumerate() {
        if i < k {
            reservoir.push(tuple.to_tuple());
        } else {
            let j = rng.gen_range(0..=i);
            if j < k {
                reservoir[j] = tuple.to_tuple();
            }
        }
    }
    reservoir
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn rel(n: i64) -> Relation {
        Relation::from_tuples("R", 1, (0..n).map(|i| Tuple::from_ints(&[i]))).unwrap()
    }

    #[test]
    fn small_relation_returned_whole() {
        let r = rel(3);
        let s = reservoir_sample(&r, 10, 42);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn sample_size_capped_at_k() {
        let r = rel(1000);
        let s = reservoir_sample(&r, 32, 42);
        assert_eq!(s.len(), 32);
        // All sampled tuples come from the relation.
        for t in &s {
            assert!(r.contains(t));
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let r = rel(500);
        assert_eq!(reservoir_sample(&r, 16, 7), reservoir_sample(&r, 16, 7));
    }

    #[test]
    fn different_seeds_differ() {
        let r = rel(500);
        let a: BTreeSet<_> = reservoir_sample(&r, 16, 1).into_iter().collect();
        let b: BTreeSet<_> = reservoir_sample(&r, 16, 2).into_iter().collect();
        assert_ne!(a, b);
    }

    #[test]
    fn zero_k_is_empty() {
        assert!(reservoir_sample(&rel(10), 0, 0).is_empty());
    }

    #[test]
    fn coverage_is_roughly_uniform() {
        // Every element should be sampled at least once across many seeds.
        let r = rel(20);
        let mut seen = BTreeSet::new();
        for seed in 0..200 {
            for t in reservoir_sample(&r, 5, seed) {
                seen.insert(t);
            }
        }
        assert_eq!(seen.len(), 20);
    }
}
