//! Deterministic relation generation with controlled selectivity.
//!
//! **Guard relations**: row `i` of an `a`-ary guard has column `j` equal to
//! `(i · pⱼ) mod n` with `pⱼ` a prime coprime to `n` — every column is a
//! distinct pseudo-random *bijection* of `[0, n)`, so any set of `k`
//! distinct in-domain values matches exactly `k` guard rows in every
//! column.
//!
//! **Conditional relations**: a `selectivity` fraction of tuples is
//! *in-domain* — projections of (pseudo-randomly selected) guard rows, so
//! they genuinely match — and the rest live in `[n, 2n)`, matching
//! nothing. This realizes the paper's "50% of the conditional tuples match
//! those of the guard relation" and the selectivity-rate sweeps of §5.4.

use gumbo_common::{Database, Relation, Tuple, Value};

/// Primes used as per-column multipliers; all exceed any practical `n`,
/// hence are coprime to it.
const COLUMN_PRIMES: [i64; 8] = [
    1_000_000_007,
    1_000_000_009,
    1_000_000_021,
    1_000_000_033,
    1_000_000_087,
    1_000_000_093,
    1_000_000_097,
    1_000_000_103,
];

/// Stride prime for picking in-domain rows.
const STRIDE_PRIME: i64 = 2_147_483_647;

/// A guard relation to generate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardSpec {
    /// Relation name.
    pub name: String,
    /// Arity (the paper uses 4).
    pub arity: usize,
}

/// A conditional relation to generate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CondSpec {
    /// Relation name.
    pub name: String,
    /// Arity (the paper's workloads use 1; the cost-model query uses 3).
    pub arity: usize,
}

/// A complete dataset specification.
#[derive(Debug, Clone, PartialEq)]
pub struct DataSpec {
    /// Guard relations.
    pub guards: Vec<GuardSpec>,
    /// Conditional relations.
    pub conds: Vec<CondSpec>,
    /// Tuples per guard relation.
    pub guard_tuples: usize,
    /// Tuples per conditional relation.
    pub cond_tuples: usize,
    /// Fraction of conditional tuples that match the guard domain.
    pub selectivity: f64,
}

impl DataSpec {
    /// A specification with the paper's default shape at 1/1000 scale:
    /// 100k-tuple guards (standing for 100M at engine scale 1000) and
    /// 50% selectivity.
    pub fn new(guards: &[(&str, usize)], conds: &[(&str, usize)]) -> Self {
        DataSpec {
            guards: guards
                .iter()
                .map(|(n, a)| GuardSpec {
                    name: (*n).to_string(),
                    arity: *a,
                })
                .collect(),
            conds: conds
                .iter()
                .map(|(n, a)| CondSpec {
                    name: (*n).to_string(),
                    arity: *a,
                })
                .collect(),
            guard_tuples: 100_000,
            cond_tuples: 100_000,
            selectivity: 0.5,
        }
    }

    /// Override tuple counts (conditionals follow guards, as in the paper).
    pub fn with_tuples(mut self, guard_tuples: usize) -> Self {
        self.guard_tuples = guard_tuples;
        self.cond_tuples = guard_tuples;
        self
    }

    /// Override the conditional tuple count independently of the guards
    /// (used by the §5.2 cost-model experiment, whose filtered conditional
    /// relations must dominate the mapper count).
    pub fn with_cond_tuples(mut self, cond_tuples: usize) -> Self {
        self.cond_tuples = cond_tuples;
        self
    }

    /// Override the selectivity rate.
    pub fn with_selectivity(mut self, selectivity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&selectivity),
            "selectivity must be in [0, 1]"
        );
        self.selectivity = selectivity;
        self
    }

    /// Value of guard column `j` in row `i` for domain size `n`.
    fn guard_value(guard_idx: usize, i: usize, j: usize, n: usize) -> i64 {
        let p = COLUMN_PRIMES[(guard_idx * 3 + j) % COLUMN_PRIMES.len()];
        ((i as i64).wrapping_mul(p)).rem_euclid(n as i64)
    }

    /// Generate the database. `seed` rotates the in-domain row selection so
    /// different seeds produce different (but equally shaped) instances.
    pub fn database(&self, seed: u64) -> Database {
        let n = self.guard_tuples;
        let mut db = Database::new();
        for (g, spec) in self.guards.iter().enumerate() {
            let tuples = (0..n).map(|i| {
                (0..spec.arity)
                    .map(|j| Value::Int(Self::guard_value(g, i, j, n)))
                    .collect::<Tuple>()
            });
            db.add_relation(
                Relation::from_tuples(spec.name.as_str(), spec.arity, tuples)
                    .expect("generated arity is correct"),
            );
        }
        // In-domain (matching) tuples are sampled from guard rows without
        // repetition, so at most `n` of them exist; any surplus tuples are
        // generated out-of-domain (they never match, but contribute input
        // bytes — the shape the §5.2 cost-model experiment needs).
        let in_domain = (((self.cond_tuples as f64) * self.selectivity).round() as usize).min(n);
        for (c, spec) in self.conds.iter().enumerate() {
            let offset = (seed as i64)
                .wrapping_add(c as i64)
                .wrapping_mul(STRIDE_PRIME)
                .rem_euclid(n.max(1) as i64) as usize;
            let tuples = (0..self.cond_tuples).map(|k| -> Tuple {
                if k < in_domain {
                    // Project a pseudo-random guard row of guard 0 onto the
                    // first `arity` columns (cycled) — guaranteed matches.
                    let row = ((k as i64).wrapping_mul(STRIDE_PRIME).rem_euclid(n as i64) as usize
                        + offset)
                        % n;
                    (0..spec.arity)
                        .map(|j| Value::Int(Self::guard_value(0, row, j % 4, n)))
                        .collect()
                } else {
                    // Out-of-domain: values ≥ n never match any guard column.
                    (0..spec.arity)
                        .map(|j| Value::Int((n + k + j) as i64))
                        .collect()
                }
            });
            db.add_relation(
                Relation::from_tuples(spec.name.as_str(), spec.arity, tuples)
                    .expect("generated arity is correct"),
            );
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn spec() -> DataSpec {
        DataSpec::new(&[("R", 4)], &[("S", 1), ("T", 1)]).with_tuples(2000)
    }

    #[test]
    fn guard_columns_are_bijections() {
        let db = spec().database(0);
        let r = db.get("R").unwrap();
        assert_eq!(r.len(), 2000);
        for j in 0..4 {
            let col: BTreeSet<i64> = r
                .iter()
                .map(|t| t.get(j).unwrap().as_int().unwrap())
                .collect();
            assert_eq!(col.len(), 2000, "column {j} not a bijection");
            assert!(col.iter().all(|&v| (0..2000).contains(&v)));
        }
    }

    #[test]
    fn selectivity_controls_match_fraction() {
        for s in [0.1, 0.5, 0.9] {
            let db = spec().with_selectivity(s).database(7);
            let r = db.get("R").unwrap();
            let sv: BTreeSet<i64> = db
                .get("S")
                .unwrap()
                .iter()
                .map(|t| t.get(0).unwrap().as_int().unwrap())
                .collect();
            // Fraction of guard rows whose column 0 value is in S.
            let matched = r
                .iter()
                .filter(|t| sv.contains(&t.get(0).unwrap().as_int().unwrap()))
                .count();
            let frac = matched as f64 / r.len() as f64;
            assert!(
                (frac - s).abs() < 0.05,
                "selectivity {s}: matched fraction {frac}"
            );
        }
    }

    #[test]
    fn selectivity_holds_for_every_column() {
        let db = spec().with_selectivity(0.5).database(3);
        let r = db.get("R").unwrap();
        let sv: BTreeSet<i64> = db
            .get("S")
            .unwrap()
            .iter()
            .map(|t| t.get(0).unwrap().as_int().unwrap())
            .collect();
        for j in 0..4 {
            let matched = r
                .iter()
                .filter(|t| sv.contains(&t.get(j).unwrap().as_int().unwrap()))
                .count();
            let frac = matched as f64 / r.len() as f64;
            assert!((frac - 0.5).abs() < 0.1, "column {j}: fraction {frac}");
        }
    }

    #[test]
    fn out_of_domain_tuples_never_match() {
        let db = spec().with_selectivity(0.0).database(0);
        let r = db.get("R").unwrap();
        let sv: BTreeSet<i64> = db
            .get("S")
            .unwrap()
            .iter()
            .map(|t| t.get(0).unwrap().as_int().unwrap())
            .collect();
        let matched = r
            .iter()
            .filter(|t| sv.contains(&t.get(0).unwrap().as_int().unwrap()))
            .count();
        assert_eq!(matched, 0);
    }

    #[test]
    fn different_seeds_differ_same_shape() {
        let a = spec().database(1);
        let b = spec().database(2);
        assert_ne!(a.get("S").unwrap(), b.get("S").unwrap());
        assert_eq!(a.get("S").unwrap().len(), b.get("S").unwrap().len());
        // Guards are seed-independent (shape fixtures).
        assert_eq!(a.get("R").unwrap(), b.get("R").unwrap());
    }

    #[test]
    fn same_seed_is_deterministic() {
        assert_eq!(spec().database(9), spec().database(9));
    }

    #[test]
    fn distinct_conditionals_differ() {
        let db = spec().database(4);
        assert_ne!(
            db.get("S").unwrap().renamed("X"),
            db.get("T").unwrap().renamed("X")
        );
    }

    #[test]
    fn multi_arity_conditionals_match_guard_rows() {
        let spec = DataSpec::new(&[("R", 4)], &[("P", 2)]).with_tuples(500);
        let db = spec.with_selectivity(1.0).database(0);
        let r = db.get("R").unwrap();
        let pairs: BTreeSet<(i64, i64)> = r
            .iter()
            .map(|t| {
                (
                    t.get(0).unwrap().as_int().unwrap(),
                    t.get(1).unwrap().as_int().unwrap(),
                )
            })
            .collect();
        // Every in-domain P tuple is a projection of some guard row.
        for t in db.get("P").unwrap().iter() {
            let p = (
                t.get(0).unwrap().as_int().unwrap(),
                t.get(1).unwrap().as_int().unwrap(),
            );
            assert!(pairs.contains(&p), "{p:?} not a guard projection");
        }
    }

    #[test]
    fn byte_budget_matches_paper_shape() {
        // 4-ary guard at 10 B/value: n tuples = 40n bytes; unary cond = 10n.
        let db = spec().database(0);
        assert_eq!(db.get("R").unwrap().estimated_bytes(), 2000 * 40);
        assert_eq!(db.get("S").unwrap().estimated_bytes(), 2000 * 10);
    }
}
