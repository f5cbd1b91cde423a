//! Plan cost estimation: the planner-side mirror of the engine's metering.
//!
//! Gumbo estimates intermediate data sizes "through simulation of the map
//! function on a sample of the input relations" (§5.1 (3)). The estimator
//! combines
//!
//! * a **catalog** of relation statistics (sizes from the DFS, upper bounds
//!   for not-yet-computed intermediate relations — the paper's `K ≤ N₁`
//!   approximation from §4.1), and
//! * **conformance rates**: the fraction of a relation's tuples
//!   conforming to an atom,
//!
//! to produce the same [`JobProfile`]s the engine measures, priced by the
//! same cost model. Estimated and measured costs therefore differ only
//! through sampling error and upper-bound slack — which is exactly the
//! planner-accuracy story of §5.2.
//!
//! # When the planner looks at tuples
//!
//! Almost never. Sizes come from [`Dfs::stat`] — O(1) metadata, looked up
//! lazily and only for the relations a query names — so building an
//! [`Estimator`] and pricing a plan costs the same on every backend and
//! does not grow with the store. An atom of distinct variables
//! ([`Atom::is_unconstrained`] — every atom of the paper's Table 2 /
//! Figure 6 workloads) conforms to every tuple of its arity, so its rate
//! is exactly 1.0, again from metadata. One corner reads values, through
//! the unmetered [`Dfs::peek`]: [`Estimator::conform_rate`] of an atom
//! with a constant or a repeated variable reservoir-samples the relation
//! (§5.1 (3)).

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};

use gumbo_common::{ByteSize, GumboError, RelationName, Result};
use gumbo_mr::{
    job_cost, CostConstants, CostModelKind, InputPartition, JobConfig, JobEstimate, JobProfile,
};
use gumbo_sgf::Atom;
pub use gumbo_storage::RelStats;
use gumbo_storage::{reservoir_sample, Dfs};

use crate::eval::{eval_inputs, EvalInput};
use crate::msj::{x_arity, RequestJob, RequestPayload};
use crate::plan::{BsgfSetPlan, PayloadMode, PlanJob};
use crate::semijoin::{identity_vars, QueryContext};

/// Per-value byte weight (the paper's data layout).
const VALUE_BYTES: f64 = 10.0;
/// Per-message header weight (see `gumbo_mr::message`).
const HEADER_BYTES: f64 = 4.0;

/// The planner's view of relation sizes, at cost-model scale: explicit
/// entries (upper bounds for not-yet-computed intermediates, analytic
/// sizes) over a lazy view of [`Dfs::stat`].
#[derive(Debug, Clone, Default)]
pub struct Catalog<'a> {
    explicit: BTreeMap<RelationName, RelStats>,
    /// The store behind every relation without an explicit entry, and the
    /// scale its statistics are priced at. `None` = analytic.
    source: Option<(&'a dyn Dfs, u64)>,
    /// What the store answered (unscaled; `None` = not materialised),
    /// memoised on first use so one estimator sees one snapshot.
    stored: RefCell<BTreeMap<RelationName, Option<RelStats>>>,
}

impl<'a> Catalog<'a> {
    /// A catalog over the relations of `dfs`, scaled. Touches nothing
    /// until a relation is asked for.
    pub fn over(dfs: &'a dyn Dfs, scale: u64) -> Self {
        Catalog {
            source: Some((dfs, scale)),
            ..Catalog::default()
        }
    }

    /// Insert (or overwrite) statistics, e.g. an upper bound for a future
    /// intermediate relation. Takes precedence over the store.
    pub fn insert(&mut self, name: RelationName, stats: RelStats) {
        self.explicit.insert(name, stats);
    }

    /// Look up statistics.
    pub fn get(&self, name: &RelationName) -> Result<RelStats> {
        let scaled = || {
            let (_, scale) = self.source?;
            self.stored(name).map(|s| RelStats {
                bytes: s.bytes.scaled(scale),
                tuples: s.tuples.saturating_mul(scale),
                arity: s.arity,
            })
        };
        (self.explicit.get(name).copied())
            .or_else(scaled)
            .ok_or_else(|| GumboError::Plan(format!("no statistics for relation {name}")))
    }

    /// The store's own (unscaled) metadata for `name`; `None` when there
    /// is no store or the relation is not materialised.
    fn stored(&self, name: &RelationName) -> Option<RelStats> {
        let (dfs, _) = self.source?;
        *self
            .stored
            .borrow_mut()
            .entry(name.clone())
            .or_insert_with(|| dfs.stat(name).ok())
    }
}

/// The plan cost estimator.
pub struct Estimator<'a> {
    /// Sizes — and, through its store, the sampling source for conformance
    /// rates (no store = assume full conformance, the simplification the
    /// paper's own Eq. 5/6 analysis makes).
    catalog: Catalog<'a>,
    constants: CostConstants,
    model: CostModelKind,
    sample_size: usize,
    seed: u64,
    conform_cache: RefCell<HashMap<Atom, f64>>,
}

impl<'a> Estimator<'a> {
    /// Estimator over a DFS with sampling. O(1): no relation is touched
    /// until a plan that names it is priced.
    pub fn new(
        dfs: &'a dyn Dfs,
        scale: u64,
        constants: CostConstants,
        model: CostModelKind,
        sample_size: usize,
        seed: u64,
    ) -> Self {
        Estimator {
            catalog: Catalog::over(dfs, scale),
            constants,
            model,
            sample_size,
            seed,
            conform_cache: RefCell::new(HashMap::new()),
        }
    }

    /// Analytic estimator over an explicit catalog (no sampling) — used for
    /// planning over not-yet-materialized relations and in unit tests.
    pub fn analytic(catalog: Catalog<'a>, constants: CostConstants, model: CostModelKind) -> Self {
        Estimator {
            catalog,
            constants,
            model,
            sample_size: 0,
            seed: 0,
            conform_cache: RefCell::new(HashMap::new()),
        }
    }

    /// The cost model in use.
    pub fn model(&self) -> CostModelKind {
        self.model
    }

    /// Switch the cost model (the §5.2 experiment plans the same queries
    /// under both models).
    pub fn with_model(mut self, model: CostModelKind) -> Self {
        self.model = model;
        self
    }

    /// Mutable access to the catalog (to register upper bounds).
    pub fn catalog_mut(&mut self) -> &mut Catalog<'a> {
        &mut self.catalog
    }

    /// Fraction of `atom`'s relation conforming to `atom`: exact from
    /// metadata when no value can matter, from a sample otherwise.
    pub fn conform_rate(&self, atom: &Atom) -> f64 {
        if let Some(rate) = self.conform_cache.borrow().get(atom) {
            return *rate;
        }
        // No store: assume full conformance, as for a relation that is
        // not materialized yet.
        let Some((dfs, _)) = self.catalog.source else {
            return 1.0;
        };
        let rate = match self.catalog.stored(atom.relation()) {
            None => 1.0,
            Some(stats) if stats.tuples == 0 || stats.arity != atom.arity() => 0.0,
            // Every tuple of the right arity conforms — 1.0 is exact.
            Some(_) if atom.is_unconstrained() => 1.0,
            Some(_) => self.sampled_conform_rate(dfs, atom),
        };
        self.conform_cache.borrow_mut().insert(atom.clone(), rate);
        rate
    }

    /// [`Estimator::conform_rate`] measured on a reservoir sample of the
    /// materialized relation (§5.1 (3)) — the general rule the metadata
    /// arms are exact shortcuts of.
    fn sampled_conform_rate(&self, dfs: &dyn Dfs, atom: &Atom) -> f64 {
        match dfs.peek(atom.relation()) {
            Ok(rel) if !rel.is_empty() && rel.arity() == atom.arity() => {
                let sample = reservoir_sample(&rel, self.sample_size.max(1), self.seed);
                let hits = sample.iter().filter(|t| atom.conforms_tuple(t)).count();
                hits as f64 / sample.len() as f64
            }
            Ok(_) => 0.0,
            Err(_) => 1.0,
        }
    }

    // ----------------------------------------------------------- sizes --

    /// Upper bound on a relation written from the facts conforming to
    /// `guard`, `arity` values each (`|Xᵢ| ≤ |α|`, `|Z| ≤ |guard|`).
    fn guarded_upper_bound(&self, guard: &Atom, arity: usize) -> Result<RelStats> {
        let stats = self.catalog.get(guard.relation())?;
        let tuples = (stats.tuples as f64 * self.conform_rate(guard)).round() as u64;
        Ok(RelStats {
            bytes: ByteSize::bytes((tuples as f64 * VALUE_BYTES * arity as f64).round() as u64),
            tuples,
            arity,
        })
    }

    /// Upper bound on a query's output (`|Z| ≤ |guard|`), for SGF chaining.
    pub fn output_upper_bound(&self, query: &gumbo_sgf::BsgfQuery) -> Result<RelStats> {
        self.guarded_upper_bound(query.guard(), query.output_vars().len())
    }

    // -------------------------------------------------------- profiles --

    /// Estimated profile of one job of a plan — Eq. 5 generalized for MSJ
    /// and 1-ROUND, Eq. 7 for EVAL: one partition per input, in the job's
    /// input order.
    pub fn profile(
        &self,
        ctx: &QueryContext,
        job: PlanJob<'_>,
        cfg: &JobConfig,
    ) -> Result<JobProfile> {
        match job {
            PlanJob::Msj(group, mode) => {
                self.request_profile(&RequestJob::msj(ctx, group, mode), cfg)
            }
            PlanJob::OneRound(fused) => {
                self.request_profile(&RequestJob::one_round(ctx, fused), cfg)
            }
            PlanJob::Eval(mode) => self.eval_profile(ctx, mode, cfg),
        }
    }

    /// Full [`JobEstimate`] of one job of a plan for the shared estimation
    /// layer: the profile the planner prices, packaged with its cost
    /// decomposition, shuffle/output sizes and suggested parallelism so
    /// the DAG scheduler can place and size the job.
    pub fn estimate(
        &self,
        ctx: &QueryContext,
        job: PlanJob<'_>,
        cfg: &JobConfig,
    ) -> Result<JobEstimate> {
        let profile = self.profile(ctx, job, cfg)?;
        Ok(JobEstimate::from_profile(
            self.model,
            &self.constants,
            &profile,
        ))
    }

    fn cost(&self, ctx: &QueryContext, job: PlanJob<'_>, cfg: &JobConfig) -> Result<f64> {
        Ok(job_cost(
            self.model,
            &self.constants,
            &self.profile(ctx, job, cfg)?,
        ))
    }

    /// Estimated cost of `MSJ(group)`.
    pub fn msj_cost(
        &self,
        ctx: &QueryContext,
        group: &[usize],
        mode: PayloadMode,
        cfg: &JobConfig,
    ) -> Result<f64> {
        self.cost(ctx, PlanJob::Msj(group, mode), cfg)
    }

    /// Profile of a request/assert job, read off the description the job
    /// is built from. Per input, one stream per target relation guarded
    /// there — `n · Σ` over the target's requests: one term per semi-join
    /// in MSJ, one per query in 1-ROUND — and one per assert group.
    fn request_profile(&self, job: &RequestJob, cfg: &JobConfig) -> Result<JobProfile> {
        let mut inputs = Vec::new();
        for rel in job.inputs() {
            let stats = self.catalog.get(&rel)?;
            let mut streams = Vec::new();
            for run in job.targets().filter(|run| run[0].guard.relation() == &rel) {
                let bytes = (run.iter())
                    .map(|r| {
                        let payload = match &r.payload {
                            RequestPayload::Project(coords) => VALUE_BYTES * coords.len() as f64,
                            RequestPayload::Reference(_) => VALUE_BYTES,
                        };
                        VALUE_BYTES * r.key.len() as f64 + HEADER_BYTES + payload
                    })
                    .sum();
                streams.push(Stream {
                    rate: self.conform_rate(&run[0].guard),
                    bytes,
                    records: run.len() as f64,
                });
            }
            for (atom, key) in job.asserts.iter().filter(|(a, _)| a.relation() == &rel) {
                streams.push(Stream {
                    rate: self.conform_rate(atom),
                    bytes: VALUE_BYTES * key.len() as f64 + HEADER_BYTES,
                    records: 1.0,
                });
            }
            inputs.push((rel, stats, streams));
        }
        let mut output = ByteSize::ZERO;
        for run in job.targets() {
            output += self
                .guarded_upper_bound(&run[0].guard, run[0].payload.arity())?
                .bytes;
        }
        Ok(assemble(inputs, output, cfg))
    }

    /// Profile of the set's EVAL job: every `Xᵢ` at its upper bound, tagged
    /// once per tuple, then the guard re-reads.
    fn eval_profile(
        &self,
        ctx: &QueryContext,
        mode: PayloadMode,
        cfg: &JobConfig,
    ) -> Result<JobProfile> {
        let mut inputs = Vec::new();
        for input in eval_inputs(ctx) {
            inputs.push(match input {
                EvalInput::X(sj) => {
                    let arity = x_arity(sj, mode);
                    let x = self.guarded_upper_bound(&sj.guard, arity)?;
                    let tag = Stream {
                        rate: 1.0,
                        bytes: VALUE_BYTES * arity as f64 + HEADER_BYTES,
                        records: 1.0,
                    };
                    (sj.x_name.clone(), x, vec![tag])
                }
                EvalInput::Guard(rel) => {
                    let guarded = ctx.queries().iter().filter(|q| q.guard().relation() == rel);
                    let streams = guarded
                        .map(|q| Stream {
                            rate: self.conform_rate(q.guard()),
                            bytes: match mode {
                                // key = identity tuple, value = 4 B tag
                                PayloadMode::Full => {
                                    VALUE_BYTES * identity_vars(q.guard()).len() as f64
                                        + HEADER_BYTES
                                }
                                // key = (guard, id), value = header + full tuple
                                PayloadMode::Reference => {
                                    2.0 * VALUE_BYTES
                                        + HEADER_BYTES
                                        + VALUE_BYTES * q.guard().arity() as f64
                                }
                            },
                            records: 1.0,
                        })
                        .collect();
                    (rel.clone(), self.catalog.get(rel)?, streams)
                }
            });
        }
        let mut output = ByteSize::ZERO;
        for q in ctx.queries() {
            output += self.output_upper_bound(q)?.bytes;
        }
        Ok(assemble(inputs, output, cfg))
    }

    /// Estimated total cost of a full plan for the query set (Eq. 9).
    pub fn plan_cost(&self, ctx: &QueryContext, plan: &BsgfSetPlan) -> Result<f64> {
        let cfg = &plan.job_config;
        if let Some(fused) = &plan.one_round {
            return self.cost(ctx, PlanJob::OneRound(fused), cfg);
        }
        let mut total = self.cost(ctx, PlanJob::Eval(plan.mode), cfg)?;
        for group in &plan.groups {
            total += self.msj_cost(ctx, group, plan.mode, cfg)?;
        }
        Ok(total)
    }
}

/// One map-output stream of a job input, per input fact: the share of the
/// input's facts that send it, and the bytes and records each of them
/// emits.
struct Stream {
    rate: f64,
    bytes: f64,
    records: f64,
}

/// The one per-input profile assembly: a partition per input, in the
/// job's input order, whose map output sums `n · bytes` over the input's
/// streams (`n` = the input's facts that send the stream), with the
/// config's mapper and reducer counts.
fn assemble(
    inputs: Vec<(RelationName, RelStats, Vec<Stream>)>,
    output: ByteSize,
    cfg: &JobConfig,
) -> JobProfile {
    let partitions: Vec<InputPartition> = (inputs.into_iter())
        .map(|(rel, stats, streams)| {
            let (mut bytes, mut records) = (0.0f64, 0.0f64);
            for s in streams {
                let n = stats.tuples as f64 * s.rate;
                bytes += n * s.bytes;
                records += n * s.records;
            }
            InputPartition {
                label: rel.to_string(),
                input: stats.bytes,
                map_output: ByteSize::bytes(bytes.round() as u64),
                records_out: records.round() as u64,
                mappers: cfg.mappers_for(stats.bytes),
            }
        })
        .collect();
    let total_in: ByteSize = partitions.iter().map(|p| p.input).sum();
    let total_m: ByteSize = partitions.iter().map(|p| p.map_output).sum();
    JobProfile {
        partitions,
        reducers: cfg.reducer_policy.reducers(total_in, total_m),
        output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gumbo_common::{Database, Relation, Tuple};
    use gumbo_sgf::parse_query;
    use gumbo_storage::SimDfs;

    fn test_db(guard_n: i64, cond_n: i64, match_every: i64) -> Database {
        let mut db = Database::new();
        let mut r = Relation::new("R", 4);
        for i in 0..guard_n {
            r.insert(Tuple::from_ints(&[i, i + 1, i + 2, i + 3]))
                .unwrap();
        }
        db.add_relation(r);
        for name in ["S", "T", "U", "V"] {
            let mut c = Relation::new(name, 1);
            for i in 0..cond_n {
                c.insert(Tuple::from_ints(&[i * match_every])).unwrap();
            }
            db.add_relation(c);
        }
        db
    }

    fn a1_ctx() -> QueryContext {
        let q = parse_query(
            "Z := SELECT (x, y, z, w) FROM R(x, y, z, w) \
             WHERE S(x) AND T(y) AND U(z) AND V(w);",
        )
        .unwrap();
        QueryContext::new(vec![q]).unwrap()
    }

    fn estimator(dfs: &SimDfs) -> Estimator<'_> {
        Estimator::new(
            dfs,
            1000,
            CostConstants::default(),
            CostModelKind::Gumbo,
            64,
            42,
        )
    }

    #[test]
    fn grouping_shares_guard_scan() {
        // One MSJ over all four semi-joins reads R once; four singleton jobs
        // read R four times -> grouped total input must be smaller.
        let dfs = SimDfs::from_database(&test_db(1000, 250, 2));
        let ctx = a1_ctx();
        let est = estimator(&dfs);
        let cfg = JobConfig::default();
        let msj = |group: &[usize]| {
            let job = PlanJob::Msj(group, PayloadMode::Reference);
            est.profile(&ctx, job, &cfg).unwrap()
        };
        let grouped = msj(&[0, 1, 2, 3]);
        let singles: Vec<JobProfile> = (0..4).map(|i| msj(&[i])).collect();
        let singles_input: ByteSize = singles.iter().map(|p| p.total_input()).sum();
        assert!(grouped.total_input() < singles_input);
        // Intermediate data is the same work either way (no packing model
        // in estimates): grouped M == sum of singleton Ms.
        let singles_m: ByteSize = singles.iter().map(|p| p.total_map_output()).sum();
        assert_eq!(grouped.total_map_output(), singles_m);
    }

    #[test]
    fn grouped_cost_beats_singletons_with_shared_guard() {
        let dfs = SimDfs::from_database(&test_db(1000, 250, 2));
        let ctx = a1_ctx();
        let est = estimator(&dfs);
        let cfg = JobConfig::default();
        let grouped = est
            .msj_cost(&ctx, &[0, 1, 2, 3], PayloadMode::Reference, &cfg)
            .unwrap();
        let singles: f64 = (0..4)
            .map(|i| {
                est.msj_cost(&ctx, &[i], PayloadMode::Reference, &cfg)
                    .unwrap()
            })
            .sum();
        // Shared guard read + 3 saved job overheads.
        assert!(grouped < singles, "grouped {grouped} vs singles {singles}");
    }

    #[test]
    fn reference_mode_shrinks_shuffle() {
        let dfs = SimDfs::from_database(&test_db(1000, 250, 2));
        let ctx = a1_ctx();
        let est = estimator(&dfs);
        let cfg = JobConfig::default();
        let all = [0, 1, 2, 3];
        let profile = |mode| est.profile(&ctx, PlanJob::Msj(&all, mode), &cfg).unwrap();
        let (full, reference) = (profile(PayloadMode::Full), profile(PayloadMode::Reference));
        assert!(reference.total_map_output() < full.total_map_output());
    }

    #[test]
    fn conform_rate_sampled() {
        let mut db = Database::new();
        let mut r = Relation::new("R", 2);
        for i in 0..500 {
            // Half the tuples have second field 0.
            r.insert(Tuple::from_ints(&[i, i % 2])).unwrap();
        }
        db.add_relation(r);
        let dfs = SimDfs::from_database(&db);
        let est = estimator(&dfs);
        let atom = Atom::new(
            "R",
            vec![gumbo_sgf::Term::var("x"), gumbo_sgf::Term::int(0)],
        );
        let rate = est.conform_rate(&atom);
        assert!((rate - 0.5).abs() < 0.2, "sampled rate {rate}");
        // Full-variable atom conforms always.
        let all = Atom::vars("R", &["x", "y"]);
        assert_eq!(est.conform_rate(&all), 1.0);
    }

    #[test]
    fn missing_relation_assumed_conforming() {
        let dfs = SimDfs::new();
        let mut est = estimator(&dfs);
        est.catalog_mut().insert(
            "Virtual".into(),
            RelStats {
                bytes: ByteSize::mb(100),
                tuples: 10_000_000,
                arity: 2,
            },
        );
        assert_eq!(est.conform_rate(&Atom::vars("Virtual", &["x", "y"])), 1.0);
        // And its stats resolve from the catalog.
        let q = parse_query("Z := SELECT x FROM Virtual(x, y) WHERE Virtual(y, q);").unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        let cost = est.msj_cost(&ctx, &[0], PayloadMode::Reference, &JobConfig::default());
        assert!(cost.is_ok());
    }

    #[test]
    fn plan_cost_sums_jobs() {
        let dfs = SimDfs::from_database(&test_db(1000, 250, 2));
        let ctx = a1_ctx();
        let est = estimator(&dfs);
        let cfg = JobConfig::default();
        let plan_par = BsgfSetPlan::singletons(&ctx, PayloadMode::Reference, cfg);
        let plan_one = BsgfSetPlan::single_group(&ctx, PayloadMode::Reference, cfg);
        let c_par = est.plan_cost(&ctx, &plan_par).unwrap();
        let c_one = est.plan_cost(&ctx, &plan_one).unwrap();
        assert!(c_one < c_par);
        let eval = (est.cost(&ctx, PlanJob::Eval(PayloadMode::Reference), &cfg)).unwrap();
        let msj_all = est
            .msj_cost(&ctx, &[0, 1, 2, 3], PayloadMode::Reference, &cfg)
            .unwrap();
        assert!((c_one - (eval + msj_all)).abs() < 1e-9);
    }

    #[test]
    fn one_round_beats_two_round_for_a3() {
        // A3: all conditionals on x -> 1-ROUND avoids the EVAL job entirely.
        let q = parse_query(
            "Z := SELECT (x, y, z, w) FROM R(x, y, z, w) \
             WHERE S(x) AND T(x) AND U(x) AND V(x);",
        )
        .unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        let dfs = SimDfs::from_database(&test_db(1000, 250, 2));
        let est = estimator(&dfs);
        let cfg = JobConfig::default();
        let two = est
            .plan_cost(
                &ctx,
                &BsgfSetPlan::single_group(&ctx, PayloadMode::Reference, cfg),
            )
            .unwrap();
        let fused = BsgfSetPlan::one_round(ctx.fused_requests().unwrap(), cfg);
        let one = est.plan_cost(&ctx, &fused).unwrap();
        assert!(one < two, "1-ROUND {one} vs 2-round {two}");
    }

    #[test]
    fn wang_model_collapses_partitions() {
        let dfs = SimDfs::from_database(&test_db(1000, 250, 2));
        let ctx = a1_ctx();
        let cfg = JobConfig::default();
        let g = estimator(&dfs);
        let w = estimator(&dfs).with_model(CostModelKind::Wang);
        // Both produce finite costs; equality is not expected in general.
        let cg = g
            .msj_cost(&ctx, &[0, 1, 2, 3], PayloadMode::Full, &cfg)
            .unwrap();
        let cw = w
            .msj_cost(&ctx, &[0, 1, 2, 3], PayloadMode::Full, &cfg)
            .unwrap();
        assert!(cg.is_finite() && cw.is_finite());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use gumbo_common::{Relation, Tuple};
    use gumbo_sgf::Term;
    use gumbo_storage::SimDfs;
    use proptest::prelude::*;

    /// A term over three variables and three constants: small enough that
    /// repeated variables, matching constants and all-distinct-variable
    /// (unconstrained) atoms all come up.
    fn arb_term() -> impl Strategy<Value = Term> {
        prop_oneof![
            (0usize..3).prop_map(|v| Term::var(["x", "y", "z"][v])),
            (0i64..3).prop_map(Term::int),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The metadata arms of `conform_rate` are shortcuts, not
        /// approximations: over random small relations (empty and
        /// wrong-arity included) and random atoms, the rate equals — bit
        /// for bit — what sampling the materialized relation computes.
        #[test]
        fn conform_rate_shortcuts_are_exact(
            arity in 1usize..4,
            rows in proptest::collection::vec(proptest::collection::vec(0i64..3, 3), 0..12),
            terms in proptest::collection::vec(arb_term(), 1..4),
            materialized in any::<bool>(),
            sample_size in 1usize..8,
            seed in any::<u64>(),
        ) {
            let dfs = SimDfs::new();
            if materialized {
                let tuples = rows.iter().map(|r| Tuple::from_ints(&r[..arity]));
                dfs.store(Relation::from_tuples("R", arity, tuples).unwrap()).unwrap();
            }
            let est = Estimator::new(
                &dfs,
                1,
                CostConstants::default(),
                CostModelKind::Gumbo,
                sample_size,
                seed,
            );
            let atom = Atom::new("R", terms);
            let rate = est.conform_rate(&atom);
            prop_assert_eq!(rate.to_bits(), est.sampled_conform_rate(&dfs, &atom).to_bits());
            if materialized && atom.is_unconstrained() && atom.arity() == arity && !rows.is_empty() {
                prop_assert_eq!(rate, 1.0);
            }
        }
    }
}
