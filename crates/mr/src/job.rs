//! Job definitions: mapper/reducer traits and per-job configuration.

use std::fmt;

use gumbo_common::{ByteSize, GumboError, RelationName, TupleBatch, TupleView, Value};

use crate::batch_shuffle::{Group, PairBatch};
use crate::estimate::JobEstimate;
use crate::message::{MsgRef, PayloadView};

/// A map function `µ`.
///
/// Called once per input tuple, in the deterministic order of the job's
/// input relations, with the tuple read in place from the task's scan (a
/// DFS snapshot or a cached segment frame) as a [`TupleView`]: nothing is
/// built to call it. `input` is the tuple's relation as its position in
/// [`Job::inputs`] — the tuple and its relation are the paper's fact
/// `R(ā)`, and a mapper resolves what it does with each input once, when
/// the job is built, into a table it indexes here. `index` is the
/// tuple's position within its relation's canonical (sorted) order — the
/// tuple id used by the guard-reference optimization (§5.1 (2)).
///
/// Pairs go to `out`, which writes them straight into the map task's
/// columnar [`PairBatch`] (see [`Emitter`]).
pub trait Mapper: Send + Sync {
    /// Process one input tuple, emitting key-value pairs into `out`.
    fn map(&self, input: usize, tuple: TupleView<'_>, index: u64, out: &mut Emitter<'_>);

    /// The pairs [`map`](Self::map) emits for *every* tuple of input
    /// `input`, whatever its values, given as one key arity per pair. It
    /// is a lower bound: a pair emitted only for some tuples (a guard with
    /// a constant or a repeated variable) is left out. A map task reserves
    /// its columns for this many pairs per tuple of its split
    /// ([`PairBatch::with_capacity`]), so the bound never reserves room
    /// that goes unused; a mapper that emits more grows its columns as it
    /// goes. The default, no pair, reserves nothing.
    fn certain_pairs(&self, input: usize) -> &[usize] {
        let _ = input;
        &[]
    }
}

/// Where a mapper's pairs land: the map task's [`PairBatch`]. Every key
/// and message tuple is copied cell by cell from the scanned row into the
/// batch's arenas, and every key is hashed there; no `Tuple` is handed
/// over. Pairs keep their emission order.
pub struct Emitter<'a> {
    batch: &'a mut PairBatch,
}

impl<'a> Emitter<'a> {
    /// An emitter appending to `batch`.
    pub fn new(batch: &'a mut PairBatch) -> Emitter<'a> {
        Emitter { batch }
    }

    /// Emit `⟨π_positions(tuple) : msg⟩` — the paper's projected key
    /// (Algorithm 1).
    #[inline]
    pub fn project(&mut self, tuple: TupleView<'_>, positions: &[usize], msg: MsgRef<'_>) {
        self.batch.push_projected(tuple, positions, msg);
    }

    /// Emit `⟨tuple : msg⟩`: the whole row as the key.
    #[inline]
    pub fn tuple(&mut self, tuple: TupleView<'_>, msg: MsgRef<'_>) {
        self.batch.push_view(tuple, msg);
    }

    /// Emit `⟨key : msg⟩` for a key that is not a projection of the row:
    /// a stack array of integers (EVAL's `(j, id)`).
    #[inline]
    pub fn key(&mut self, key: &[Value], msg: MsgRef<'_>) {
        self.batch.push_values(key, msg);
    }
}

/// A reduce function `ρ`.
///
/// Called once per key group with the group borrowed in place from the
/// shuffle ([`Group`]): its key as a [`TupleView`] and its values as
/// [`MsgView`](crate::MsgView)s in emission order. What the reducer emits
/// is copied cell by cell into `out` ([`OutputSink`]); no `Tuple` is
/// built on either side.
pub trait Reducer: Send + Sync {
    /// Process one group, writing output facts into `out`.
    fn reduce(&self, group: &Group<'_>, out: &mut OutputSink<'_>);
}

/// Where a reduce task's output facts land: one [`TupleBatch`] per
/// declared output of the job, addressed by its *slot* — its position in
/// [`Job::outputs`], fixed when the job is built — so an emit is an index,
/// not a name lookup. Rows are appended in emission order, duplicates
/// included; the reduce task sorts and de-duplicates each batch, and the
/// commit merges the tasks' batches.
///
/// An emit to a slot the job does not declare, or of the wrong arity, is
/// not written: the sink keeps the first such error, which fails the job.
pub struct OutputSink<'a> {
    job: &'a Job,
    batches: Vec<TupleBatch>,
    error: Option<GumboError>,
}

impl<'a> OutputSink<'a> {
    /// An empty sink for `job`'s declared outputs.
    pub fn new(job: &'a Job) -> OutputSink<'a> {
        OutputSink {
            job,
            batches: (job.outputs.iter())
                .map(|(_, arity)| TupleBatch::new(*arity))
                .collect(),
            error: None,
        }
    }

    /// The batch of `slot`, if a row of `arity` may go there; otherwise
    /// record the error (the first one wins).
    fn batch(&mut self, slot: usize, arity: usize) -> Option<&mut TupleBatch> {
        if self.error.is_some() {
            return None;
        }
        match self.job.outputs.get(slot) {
            Some((_, expected)) if *expected == arity => Some(&mut self.batches[slot]),
            Some((name, expected)) => {
                self.error = Some(GumboError::ArityMismatch {
                    relation: name.to_string(),
                    expected: *expected,
                    got: arity,
                });
                None
            }
            None => {
                self.error = Some(GumboError::Plan(format!(
                    "job {} emitted to undeclared output slot {slot}",
                    self.job.name
                )));
                None
            }
        }
    }

    /// Emit the row `tuple` reads into output `slot`.
    pub fn view(&mut self, slot: usize, tuple: TupleView<'_>) {
        if let Some(batch) = self.batch(slot, tuple.arity()) {
            batch.push_view(tuple);
        }
    }

    /// Emit `π_positions(tuple)` into output `slot`.
    pub fn project(&mut self, slot: usize, tuple: TupleView<'_>, positions: &[usize]) {
        if let Some(batch) = self.batch(slot, positions.len()) {
            batch.push_view_projected(tuple, positions);
        }
    }

    /// Emit the tuple a request payload stores into output `slot`: the
    /// payload row itself, or a reference as the integer pair
    /// `(guard, id)`.
    pub fn payload(&mut self, slot: usize, payload: PayloadView<'_>) {
        match payload {
            PayloadView::Tuple(t) => self.view(slot, t),
            PayloadView::Ref { guard, id } => {
                if let Some(batch) = self.batch(slot, 2) {
                    batch.push_values(&[Value::Int(i64::from(guard)), Value::Int(id as i64)]);
                }
            }
        }
    }

    /// The first emit error, if any, ending the sink's use.
    pub(crate) fn take_error(&mut self) -> Option<GumboError> {
        self.error.take()
    }

    /// The emitted rows, one batch per declared output in slot order.
    pub fn into_batches(self) -> Vec<TupleBatch> {
        self.batches
    }
}

/// How a job chooses its reducer count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReducerPolicy {
    /// Gumbo's policy (§5.1 (3)): reducers sized by **intermediate** data,
    /// one reducer per `mb_per_reducer` MB of (estimated) map output.
    /// The paper allocates 256 MB per reducer.
    ByIntermediate {
        /// MB of intermediate data per reducer.
        mb_per_reducer: u64,
    },
    /// Pig's default policy (§5.2): reducers sized by map **input**,
    /// one reducer per `mb_per_reducer` MB of input (Pig uses 1 GB).
    ByInput {
        /// MB of map input per reducer.
        mb_per_reducer: u64,
    },
    /// A fixed reducer count.
    Fixed(usize),
}

impl ReducerPolicy {
    /// Gumbo's default: 256 MB of intermediate data per reducer.
    pub fn gumbo_default() -> Self {
        ReducerPolicy::ByIntermediate {
            mb_per_reducer: 256,
        }
    }

    /// Pig's default: 1 GB of input per reducer.
    pub fn pig_default() -> Self {
        ReducerPolicy::ByInput {
            mb_per_reducer: 1000,
        }
    }

    /// Resolve the reducer count from (scaled) input and intermediate sizes.
    pub fn reducers(&self, total_input: ByteSize, total_map_output: ByteSize) -> usize {
        match *self {
            ReducerPolicy::ByIntermediate { mb_per_reducer } => {
                div_ceil_mb(total_map_output, mb_per_reducer)
            }
            ReducerPolicy::ByInput { mb_per_reducer } => div_ceil_mb(total_input, mb_per_reducer),
            ReducerPolicy::Fixed(r) => r.max(1),
        }
    }
}

fn div_ceil_mb(bytes: ByteSize, mb_per_reducer: u64) -> usize {
    let per = (mb_per_reducer.max(1)) * gumbo_common::MB;
    (bytes.as_bytes().div_ceil(per)).max(1) as usize
}

/// Per-job knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobConfig {
    /// Message packing (§5.1 (1)): key bytes are charged once per distinct
    /// key per map task instead of once per message.
    pub packing: bool,
    /// Reducer allocation policy.
    pub reducer_policy: ReducerPolicy,
    /// DFS split size in MB (Hadoop default 128 MB) — determines `mᵢ`.
    pub split_mb: u64,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            packing: true,
            reducer_policy: ReducerPolicy::gumbo_default(),
            split_mb: 128,
        }
    }
}

impl JobConfig {
    /// Configuration modelling the Pig/Hive baselines: no packing, Pig's
    /// input-based reducer allocation.
    pub fn baseline() -> Self {
        JobConfig {
            packing: false,
            reducer_policy: ReducerPolicy::pig_default(),
            split_mb: 128,
        }
    }

    /// Number of map tasks for an input of the given (scaled) size.
    pub fn mappers_for(&self, input: ByteSize) -> usize {
        let split = (self.split_mb.max(1)) * gumbo_common::MB;
        (input.as_bytes().div_ceil(split)).max(1) as usize
    }
}

/// One MapReduce job: `(µ, ρ)` plus input/output wiring and configuration.
pub struct Job {
    /// Display name (e.g. `MSJ(X1,X2)` or `EVAL(R, φ)`).
    pub name: String,
    /// Input relation files, read in order.
    pub inputs: Vec<RelationName>,
    /// Declared outputs with arities; created (possibly empty) on completion.
    pub outputs: Vec<(RelationName, usize)>,
    /// The map function.
    pub mapper: Box<dyn Mapper>,
    /// The reduce function.
    pub reducer: Box<dyn Reducer>,
    /// Job configuration.
    pub config: JobConfig,
    /// Plan-time cost estimate from the shared estimation layer
    /// ([`crate::estimate`]). Attached by the planner (`None` for jobs
    /// built outside it); carried through `MrProgram::into_dag()` so the
    /// scheduler can place, size and predict from the same numbers the
    /// planner optimized.
    pub estimate: Option<JobEstimate>,
}

impl Job {
    /// Attach (or replace) this job's plan-time estimate.
    pub fn with_estimate(mut self, estimate: JobEstimate) -> Job {
        self.estimate = Some(estimate);
        self
    }
    /// Names of the relations this job reads, in read order.
    ///
    /// Together with [`Job::output_names`] this is the job's complete DFS
    /// footprint — the dependency information the DAG lowering
    /// (`MrProgram::into_dag`) infers scheduling edges from.
    pub fn input_names(&self) -> impl Iterator<Item = &RelationName> + '_ {
        self.inputs.iter()
    }

    /// Names of the relations this job writes (declared outputs).
    pub fn output_names(&self) -> impl Iterator<Item = &RelationName> + '_ {
        self.outputs.iter().map(|(name, _)| name)
    }
}

impl fmt::Debug for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Job")
            .field("name", &self.name)
            .field("inputs", &self.inputs)
            .field("outputs", &self.outputs)
            .field("config", &self.config)
            .field("estimate", &self.estimate)
            .finish_non_exhaustive()
    }
}

/// Test-only fixtures shared by this crate's unit and property tests: a
/// mapper/reducer pair that emits nothing, and a job builder that only
/// cares about relation wiring (which is all the program/DAG layers look
/// at).
#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// Emits nothing, on either side of the shuffle.
    pub(crate) struct Noop;

    impl Mapper for Noop {
        fn map(&self, _: usize, _: TupleView<'_>, _: u64, _: &mut Emitter<'_>) {}
    }

    impl Reducer for Noop {
        fn reduce(&self, _: &Group<'_>, _: &mut OutputSink<'_>) {}
    }

    /// A no-op job reading `inputs` and declaring unary `outputs`.
    pub(crate) fn noop_job<I, O>(name: impl Into<String>, inputs: I, outputs: O) -> Job
    where
        I: IntoIterator,
        I::Item: Into<RelationName>,
        O: IntoIterator,
        O::Item: Into<RelationName>,
    {
        Job {
            name: name.into(),
            inputs: inputs.into_iter().map(Into::into).collect(),
            outputs: outputs.into_iter().map(|n| (n.into(), 1)).collect(),
            mapper: Box::new(Noop),
            reducer: Box::new(Noop),
            config: JobConfig::default(),
            estimate: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gumbo_policy_sizes_by_intermediate() {
        let p = ReducerPolicy::gumbo_default();
        // 1000 MB intermediate / 256 MB = 4 reducers; input is ignored.
        assert_eq!(p.reducers(ByteSize::mb(1_000_000), ByteSize::mb(1000)), 4);
        assert_eq!(p.reducers(ByteSize::ZERO, ByteSize::mb(1)), 1);
    }

    #[test]
    fn pig_policy_sizes_by_input() {
        let p = ReducerPolicy::pig_default();
        // 5 GB input / 1 GB = 5 reducers; intermediate is ignored.
        assert_eq!(p.reducers(ByteSize::mb(5000), ByteSize::mb(1_000_000)), 5);
    }

    #[test]
    fn fixed_policy_clamps_to_one() {
        assert_eq!(
            ReducerPolicy::Fixed(0).reducers(ByteSize::ZERO, ByteSize::ZERO),
            1
        );
        assert_eq!(
            ReducerPolicy::Fixed(7).reducers(ByteSize::ZERO, ByteSize::ZERO),
            7
        );
    }

    #[test]
    fn at_least_one_reducer_for_empty_data() {
        assert_eq!(
            ReducerPolicy::gumbo_default().reducers(ByteSize::ZERO, ByteSize::ZERO),
            1
        );
    }

    #[test]
    fn mapper_count_from_splits() {
        let cfg = JobConfig::default();
        assert_eq!(cfg.mappers_for(ByteSize::mb(4000)), 32); // 4 GB / 128 MB
        assert_eq!(cfg.mappers_for(ByteSize::mb(1)), 1);
        assert_eq!(cfg.mappers_for(ByteSize::ZERO), 1);
        assert_eq!(cfg.mappers_for(ByteSize::mb(129)), 2);
    }
}
