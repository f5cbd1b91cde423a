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

use crate::plan::{BsgfSetPlan, OneRoundKind, PayloadMode};
use crate::semijoin::{cond_groups, identity_vars, QueryContext, SemiJoin};

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
                tuples: s.tuples * scale,
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

    fn payload_bytes(sj: &SemiJoin, mode: PayloadMode) -> f64 {
        match mode {
            PayloadMode::Full => VALUE_BYTES * sj.identity_vars.len() as f64,
            PayloadMode::Reference => VALUE_BYTES,
        }
    }

    fn x_tuple_bytes(sj: &SemiJoin, mode: PayloadMode) -> f64 {
        match mode {
            PayloadMode::Full => VALUE_BYTES * sj.identity_vars.len() as f64,
            PayloadMode::Reference => 2.0 * VALUE_BYTES,
        }
    }

    /// Upper bound on the `Xᵢ` relation of a semi-join (`|Xᵢ| ≤ |α|`).
    fn x_upper_bound(&self, sj: &SemiJoin, mode: PayloadMode) -> Result<RelStats> {
        let guard = self.catalog.get(sj.guard.relation())?;
        let tuples = (guard.tuples as f64 * self.conform_rate(&sj.guard)).round() as u64;
        Ok(RelStats {
            bytes: ByteSize::bytes((tuples as f64 * Self::x_tuple_bytes(sj, mode)).round() as u64),
            tuples,
            arity: match mode {
                PayloadMode::Full => sj.identity_vars.len(),
                PayloadMode::Reference => 2,
            },
        })
    }

    /// Upper bound on a query's output (`|Z| ≤ |guard|`), for SGF chaining.
    pub fn output_upper_bound(&self, query: &gumbo_sgf::BsgfQuery) -> Result<RelStats> {
        let guard = self.catalog.get(query.guard().relation())?;
        let tuples = (guard.tuples as f64 * self.conform_rate(query.guard())).round() as u64;
        let arity = query.output_vars().len();
        Ok(RelStats {
            bytes: ByteSize::bytes((tuples as f64 * VALUE_BYTES * arity as f64).round() as u64),
            tuples,
            arity,
        })
    }

    // -------------------------------------------------------- profiles --

    /// Estimated profile of `MSJ(group)` — the generalization of Eq. 5.
    pub fn msj_profile(
        &self,
        ctx: &QueryContext,
        group: &[usize],
        mode: PayloadMode,
        cfg: &JobConfig,
    ) -> Result<JobProfile> {
        let sjs: Vec<&SemiJoin> = group.iter().map(|&i| ctx.semijoin(i)).collect();
        let (assert_groups, _) = cond_groups(&sjs);

        // Same input ordering as `build_msj_job`: guards first, then conds.
        let mut inputs: Vec<RelationName> = Vec::new();
        for sj in &sjs {
            if !inputs.contains(sj.guard.relation()) {
                inputs.push(sj.guard.relation().clone());
            }
        }
        for (atom, _) in &assert_groups {
            if !inputs.contains(atom.relation()) {
                inputs.push(atom.relation().clone());
            }
        }

        let mut partitions = Vec::with_capacity(inputs.len());
        for rel in &inputs {
            let stats = self.catalog.get(rel)?;
            let mut out_bytes = 0.0f64;
            let mut records = 0.0f64;
            for sj in &sjs {
                if sj.guard.relation() == rel {
                    let n = stats.tuples as f64 * self.conform_rate(&sj.guard);
                    out_bytes += n
                        * (VALUE_BYTES * sj.join_key.len() as f64
                            + HEADER_BYTES
                            + Self::payload_bytes(sj, mode));
                    records += n;
                }
            }
            for (atom, key) in &assert_groups {
                if atom.relation() == rel {
                    let n = stats.tuples as f64 * self.conform_rate(atom);
                    out_bytes += n * (VALUE_BYTES * key.len() as f64 + HEADER_BYTES);
                    records += n;
                }
            }
            partitions.push(InputPartition {
                label: rel.to_string(),
                input: stats.bytes,
                map_output: ByteSize::bytes(out_bytes.round() as u64),
                records_out: records.round() as u64,
                mappers: cfg.mappers_for(stats.bytes),
            });
        }

        let total_in: ByteSize = partitions.iter().map(|p| p.input).sum();
        let total_m: ByteSize = partitions.iter().map(|p| p.map_output).sum();
        let mut output = ByteSize::ZERO;
        for sj in &sjs {
            output += self.x_upper_bound(sj, mode)?.bytes;
        }
        Ok(JobProfile {
            partitions,
            reducers: cfg.reducer_policy.reducers(total_in, total_m),
            output,
        })
    }

    /// Full [`JobEstimate`] of `MSJ(group)` for the shared estimation
    /// layer: the same profile [`Estimator::msj_cost`] prices, packaged
    /// with its cost decomposition, shuffle/output sizes and suggested
    /// parallelism so the DAG scheduler can place and size the job.
    pub fn msj_estimate(
        &self,
        ctx: &QueryContext,
        group: &[usize],
        mode: PayloadMode,
        cfg: &JobConfig,
    ) -> Result<JobEstimate> {
        Ok(JobEstimate::from_profile(
            self.model,
            &self.constants,
            &self.msj_profile(ctx, group, mode, cfg)?,
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
        Ok(job_cost(
            self.model,
            &self.constants,
            &self.msj_profile(ctx, group, mode, cfg)?,
        ))
    }

    /// Estimated profile of the set's EVAL job — Eq. 7 generalized.
    pub fn eval_profile(
        &self,
        ctx: &QueryContext,
        mode: PayloadMode,
        cfg: &JobConfig,
    ) -> Result<JobProfile> {
        let mut partitions = Vec::new();
        // X inputs.
        for sj in ctx.semijoins() {
            let x = self.x_upper_bound(sj, mode)?;
            let per_tuple = Self::x_tuple_bytes(sj, mode) + HEADER_BYTES;
            partitions.push(InputPartition {
                label: sj.x_name.to_string(),
                input: x.bytes,
                map_output: ByteSize::bytes((x.tuples as f64 * per_tuple).round() as u64),
                records_out: x.tuples,
                mappers: cfg.mappers_for(x.bytes),
            });
        }
        // Guard re-reads (deduplicated).
        let mut guard_rels: Vec<RelationName> = Vec::new();
        for q in ctx.queries() {
            if !guard_rels.contains(q.guard().relation()) {
                guard_rels.push(q.guard().relation().clone());
            }
        }
        for rel in &guard_rels {
            let stats = self.catalog.get(rel)?;
            let mut out_bytes = 0.0;
            let mut records = 0.0;
            for q in ctx.queries() {
                if q.guard().relation() == rel {
                    let n = stats.tuples as f64 * self.conform_rate(q.guard());
                    let ident = identity_vars(q.guard()).len() as f64;
                    let per = match mode {
                        // key = identity tuple, value = 4 B tag
                        PayloadMode::Full => VALUE_BYTES * ident + HEADER_BYTES,
                        // key = (guard, id), value = header + full tuple
                        PayloadMode::Reference => {
                            2.0 * VALUE_BYTES
                                + HEADER_BYTES
                                + VALUE_BYTES * q.guard().arity() as f64
                        }
                    };
                    out_bytes += n * per;
                    records += n;
                }
            }
            partitions.push(InputPartition {
                label: rel.to_string(),
                input: stats.bytes,
                map_output: ByteSize::bytes(out_bytes.round() as u64),
                records_out: records.round() as u64,
                mappers: cfg.mappers_for(stats.bytes),
            });
        }

        let total_in: ByteSize = partitions.iter().map(|p| p.input).sum();
        let total_m: ByteSize = partitions.iter().map(|p| p.map_output).sum();
        let mut output = ByteSize::ZERO;
        for q in ctx.queries() {
            output += self.output_upper_bound(q)?.bytes;
        }
        Ok(JobProfile {
            partitions,
            reducers: cfg.reducer_policy.reducers(total_in, total_m),
            output,
        })
    }

    /// Full [`JobEstimate`] of the set's EVAL job.
    pub fn eval_estimate(
        &self,
        ctx: &QueryContext,
        mode: PayloadMode,
        cfg: &JobConfig,
    ) -> Result<JobEstimate> {
        Ok(JobEstimate::from_profile(
            self.model,
            &self.constants,
            &self.eval_profile(ctx, mode, cfg)?,
        ))
    }

    /// Estimated cost of the EVAL job.
    pub fn eval_cost(&self, ctx: &QueryContext, mode: PayloadMode, cfg: &JobConfig) -> Result<f64> {
        Ok(job_cost(
            self.model,
            &self.constants,
            &self.eval_profile(ctx, mode, cfg)?,
        ))
    }

    /// Estimated profile of a fused 1-ROUND job.
    pub fn one_round_profile(
        &self,
        ctx: &QueryContext,
        kind: OneRoundKind,
        cfg: &JobConfig,
    ) -> Result<JobProfile> {
        let sjs: Vec<&SemiJoin> = ctx.semijoins().iter().collect();
        let (assert_groups, _) = cond_groups(&sjs);
        let mut inputs: Vec<RelationName> = Vec::new();
        for q in ctx.queries() {
            if !inputs.contains(q.guard().relation()) {
                inputs.push(q.guard().relation().clone());
            }
        }
        for (atom, _) in &assert_groups {
            if !inputs.contains(atom.relation()) {
                inputs.push(atom.relation().clone());
            }
        }
        let mut partitions = Vec::new();
        for rel in &inputs {
            let stats = self.catalog.get(rel)?;
            let mut out_bytes = 0.0;
            let mut records = 0.0;
            for (j, q) in ctx.queries().iter().enumerate() {
                if q.guard().relation() == rel {
                    let n = stats.tuples as f64 * self.conform_rate(q.guard());
                    let out_w = VALUE_BYTES * q.output_vars().len() as f64;
                    // SameKey: one request per guard tuple; Disjunctive: one
                    // request per literal.
                    let requests = match kind {
                        OneRoundKind::SameKey => 1.0,
                        OneRoundKind::Disjunctive => ctx.semijoins_of(j).len().max(1) as f64,
                    };
                    let key_len = ctx
                        .semijoins_of(j)
                        .first()
                        .map_or(0.0, |&i| ctx.semijoin(i).join_key.len() as f64);
                    out_bytes += n * requests * (VALUE_BYTES * key_len + HEADER_BYTES + out_w);
                    records += n * requests;
                }
            }
            for (atom, key) in &assert_groups {
                if atom.relation() == rel {
                    let n = stats.tuples as f64 * self.conform_rate(atom);
                    out_bytes += n * (VALUE_BYTES * key.len() as f64 + HEADER_BYTES);
                    records += n;
                }
            }
            partitions.push(InputPartition {
                label: rel.to_string(),
                input: stats.bytes,
                map_output: ByteSize::bytes(out_bytes.round() as u64),
                records_out: records.round() as u64,
                mappers: cfg.mappers_for(stats.bytes),
            });
        }
        let total_in: ByteSize = partitions.iter().map(|p| p.input).sum();
        let total_m: ByteSize = partitions.iter().map(|p| p.map_output).sum();
        let mut output = ByteSize::ZERO;
        for q in ctx.queries() {
            output += self.output_upper_bound(q)?.bytes;
        }
        Ok(JobProfile {
            partitions,
            reducers: cfg.reducer_policy.reducers(total_in, total_m),
            output,
        })
    }

    /// Full [`JobEstimate`] of a fused 1-ROUND job.
    pub fn one_round_estimate(
        &self,
        ctx: &QueryContext,
        kind: OneRoundKind,
        cfg: &JobConfig,
    ) -> Result<JobEstimate> {
        Ok(JobEstimate::from_profile(
            self.model,
            &self.constants,
            &self.one_round_profile(ctx, kind, cfg)?,
        ))
    }

    /// Estimated total cost of a full plan for the query set (Eq. 9).
    pub fn plan_cost(&self, ctx: &QueryContext, plan: &BsgfSetPlan) -> Result<f64> {
        match plan.one_round {
            Some(kind) => Ok(job_cost(
                self.model,
                &self.constants,
                &self.one_round_profile(ctx, kind, &plan.job_config)?,
            )),
            None => {
                let mut total = self.eval_cost(ctx, plan.mode, &plan.job_config)?;
                for group in &plan.groups {
                    total += self.msj_cost(ctx, group, plan.mode, &plan.job_config)?;
                }
                Ok(total)
            }
        }
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
        let grouped = est
            .msj_profile(&ctx, &[0, 1, 2, 3], PayloadMode::Reference, &cfg)
            .unwrap();
        let singles: Vec<JobProfile> = (0..4)
            .map(|i| {
                est.msj_profile(&ctx, &[i], PayloadMode::Reference, &cfg)
                    .unwrap()
            })
            .collect();
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
        let full = est
            .msj_profile(&ctx, &[0, 1, 2, 3], PayloadMode::Full, &cfg)
            .unwrap();
        let reference = est
            .msj_profile(&ctx, &[0, 1, 2, 3], PayloadMode::Reference, &cfg)
            .unwrap();
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
        let eval = est.eval_cost(&ctx, PayloadMode::Reference, &cfg).unwrap();
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
        let one = est
            .plan_cost(&ctx, &BsgfSetPlan::one_round(OneRoundKind::SameKey, cfg))
            .unwrap();
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
                dfs.store(Relation::from_tuples("R", arity, tuples).unwrap());
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
