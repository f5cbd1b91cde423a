//! Executable rendition of Appendix A: the Subset-Sum reduction behind
//! Theorem 2 (NP-completeness of SGF-Opt).
//!
//! The reduction builds BSGF queries `fᵢ = Rᵢ(xᵢ, yᵢ) ⋉ Sᵢ(xᵢ, 1)` with
//! `|Sᵢ| = aᵢ` (1 MB tuples), empty `Rᵢ`, and a collector query `f°` whose
//! atoms mention every `Rᵢ` and `Sᵢ`; all cost constants are 0 except
//! `hr = 1`. The proof relies on three cost identities, which we verify on
//! the actual estimator:
//!
//! 1. `cost(GOPT({fᵢ})) = aᵢ`;
//! 2. `cost(GOPT({fᵢ, f_j})) = aᵢ + a_j` (no interaction);
//! 3. grouping `fᵢ` with `f°` is absorbed into `γ = Σ aᵢ` (`f°` already
//!    reads every relation, so adding `fᵢ` is free).

use std::collections::BTreeSet;

use gumbo::core::estimate::{Catalog, RelStats};
use gumbo::core::planner::greedy_partition;
use gumbo::core::{Estimator, PayloadMode, QueryContext};
use gumbo::prelude::*;

/// The subset-sum instance A = {3, 5, 7} (MB-sized relations).
const A: [u64; 3] = [3, 5, 7];

fn reduction_catalog() -> Catalog<'static> {
    let mut catalog = Catalog::default();
    for (i, &a) in A.iter().enumerate() {
        // R_i empty; S_i holds a_i one-MB tuples (modeled as bytes).
        catalog.insert(
            format!("R{i}").into(),
            RelStats {
                bytes: ByteSize::ZERO,
                tuples: 0,
                arity: 2,
            },
        );
        catalog.insert(
            format!("S{i}").into(),
            RelStats {
                bytes: ByteSize::mb(a),
                tuples: a,
                arity: 2,
            },
        );
    }
    catalog.insert(
        "Rc".into(),
        RelStats {
            bytes: ByteSize::ZERO,
            tuples: 0,
            arity: 2,
        },
    );
    catalog
}

fn reduction_queries() -> Vec<BsgfQuery> {
    let mut queries = Vec::new();
    for i in 0..A.len() {
        queries.push(
            parse_query(&format!(
                "F{i} := SELECT (x, y) FROM R{i}(x, y) WHERE S{i}(x, 1);"
            ))
            .unwrap(),
        );
    }
    // f°: mentions all R_i and S_i.
    let atoms: Vec<String> = (0..A.len())
        .flat_map(|i| [format!("R{i}(q{i}, p{i})"), format!("S{i}(s{i}, 1)")])
        .collect();
    queries.push(
        parse_query(&format!(
            "Fc := SELECT (x, y) FROM Rc(x, y) WHERE {};",
            atoms.join(" AND ")
        ))
        .unwrap(),
    );
    queries
}

fn estimator() -> Estimator<'static> {
    Estimator::analytic(
        reduction_catalog(),
        CostConstants::appendix_a(),
        CostModelKind::Gumbo,
    )
}

#[test]
fn individual_query_costs_equal_their_weights() {
    // cost(GOPT({f_i})) = a_i: only the hr-read of S_i is charged (R_i is
    // empty and every other constant is zero). EVAL reads nothing.
    let est = estimator();
    for (i, &a) in A.iter().enumerate() {
        let q = &reduction_queries()[i];
        let ctx = QueryContext::new(vec![q.clone()]).unwrap();
        let msj = est
            .msj_cost(&ctx, &[0], PayloadMode::Reference, &JobConfig::default())
            .unwrap();
        assert!(
            (msj - a as f64).abs() < 1e-9,
            "cost(f{i}) = {msj}, expected {a}"
        );
    }
}

#[test]
fn pairs_cost_their_sum() {
    // cost(GOPT({f_i, f_j})) = a_i + a_j regardless of grouping: the two
    // queries share no relations.
    let est = estimator();
    let queries = reduction_queries();
    let ctx = QueryContext::new(vec![queries[0].clone(), queries[1].clone()]).unwrap();
    let cfg = JobConfig::default();
    let together = est
        .msj_cost(&ctx, &[0, 1], PayloadMode::Reference, &cfg)
        .unwrap();
    let separate = est
        .msj_cost(&ctx, &[0], PayloadMode::Reference, &cfg)
        .unwrap()
        + est
            .msj_cost(&ctx, &[1], PayloadMode::Reference, &cfg)
            .unwrap();
    assert!(
        (together - (A[0] + A[1]) as f64).abs() < 1e-9,
        "together = {together}"
    );
    assert!((separate - together).abs() < 1e-9);
}

#[test]
fn collector_absorbs_any_member_for_free() {
    // f° reads every S_i already: cost(GOPT({f_i, f°})) = γ = Σ a_i, so
    // greedy always groups f_i with f° (the γ-absorption of the proof).
    let est = estimator();
    let queries = reduction_queries();
    let gamma: u64 = A.iter().sum();
    let cfg = JobConfig::default();

    let collector = QueryContext::new(vec![queries[3].clone()]).unwrap();
    let all: Vec<usize> = (0..collector.semijoins().len()).collect();
    let alone = est
        .msj_cost(&collector, &all, PayloadMode::Reference, &cfg)
        .unwrap();
    assert!(
        (alone - gamma as f64).abs() < 1e-9,
        "cost(f°) = {alone}, γ = {gamma}"
    );

    let with_f0 = QueryContext::new(vec![queries[0].clone(), queries[3].clone()]).unwrap();
    let all: Vec<usize> = (0..with_f0.semijoins().len()).collect();
    let merged = est
        .msj_cost(&with_f0, &all, PayloadMode::Reference, &cfg)
        .unwrap();
    assert!(
        (merged - gamma as f64).abs() < 1e-9,
        "cost(f0 ∪ f°) = {merged}, expected γ = {gamma}"
    );
}

#[test]
fn greedy_partition_realizes_the_reduction_structure() {
    // Running Greedy-BSGF over {f0, f1, f2, f°}'s semi-joins groups every
    // f_i's semi-join with f°'s (each merge saves a full S_i read), giving
    // a single block of total cost γ.
    let est = estimator();
    let queries = reduction_queries();
    let ctx = QueryContext::new(queries).unwrap();
    let n = ctx.semijoins().len();
    let cfg = JobConfig::default();
    let mut cost_fn = |b: &BTreeSet<usize>| {
        let ids: Vec<usize> = b.iter().copied().collect();
        est.msj_cost(&ctx, &ids, PayloadMode::Reference, &cfg)
            .unwrap()
    };
    let (blocks, total) = greedy_partition(n, &mut cost_fn);
    let gamma: u64 = A.iter().sum();
    // The γ-absorption: total cost collapses to γ = Σ aᵢ (each Sᵢ read
    // exactly once), because every fᵢ semi-join is co-grouped with the f°
    // semi-join over the same Sᵢ. (Greedy leaves f°'s zero-cost Rᵢ
    // semi-joins as their own blocks — merging them has zero gain.)
    assert!(
        (total - gamma as f64).abs() < 1e-9,
        "total = {total}, γ = {gamma}"
    );
    for i in 0..A.len() {
        let f_i_block = blocks.iter().find(|b| b.contains(&i)).unwrap();
        let partner = ctx
            .semijoins()
            .iter()
            .find(|sj| {
                sj.query_idx == A.len() // f°'s sjs
                    && sj.cond.relation().as_str() == format!("S{i}")
            })
            .unwrap();
        assert!(
            f_i_block.contains(&partner.id),
            "f{i} should share a job with f°'s S{i} semi-join: {blocks:?}"
        );
    }
}
