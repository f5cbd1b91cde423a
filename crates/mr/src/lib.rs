//! # gumbo-mr
//!
//! A deterministic MapReduce substrate: the execution environment the paper
//! assumes (Hadoop MR, §3.2) rebuilt as an in-memory engine plus a cluster
//! simulator, together with the paper's I/O **cost model** (§3.3).
//!
//! ## What "executing" means here
//!
//! Jobs *really run*: the mapper is applied to every input fact, key-value
//! pairs are hash-partitioned to reducers, grouped, and reduced — so query
//! results are real and can be checked against a reference evaluator. At
//! the same time every stage is *metered*: per-input-partition map output
//! bytes `Mᵢ`, metadata `M̂ᵢ`, mapper counts `mᵢ`, shuffle volume `M`,
//! output size `K`. Those measurements feed
//!
//! * the cost model (`cost`), yielding the paper's **total time** (aggregate
//!   cost over all tasks, the pay-as-you-go metric), and
//! * the cluster simulator (`cluster`), yielding **net time** (wall-clock:
//!   the makespan of scheduling task waves onto `nodes × slots`).
//!
//! ## The runtime
//!
//! One [`Executor`] ([`executor`]) runs every job through one
//! map→shuffle→reduce pipeline that fans map tasks, the partitioned
//! shuffle and reduce tasks out over a fixed worker pool while collecting
//! the metering above. Answer relations and [`JobStats`] are
//! byte-identical at every worker count, so the count is a sizing choice,
//! made with [`ExecutorKind`]:
//!
//! * `sim` — the executor pinned to **one worker**: every phase runs
//!   inline on the calling thread. This is the reference configuration
//!   the reproducible §5 experiments use (and the default);
//! * `parallel` / `parallel:N` — an auto-sized or `N`-thread pool, for
//!   the answer as fast as the hardware allows.
//!
//! A configurable *scale factor* maps laptop-sized relations onto the
//! paper's 100M-tuple regime: all byte quantities are multiplied by it
//! before entering the cost model, so merge-pass counts and reducer
//! allocations match the paper's operating point.
//!
//! ## Bounded-memory shuffle
//!
//! The shuffle runs through the budget-charged buffers of
//! [`batch_shuffle`]: with [`EngineConfig::mem_budget`] set, per-reducer
//! buffers spill sorted runs to job-scoped disk directories instead of
//! growing past the limit, and the reduce phase streams a merge of the
//! runs plus the in-memory tail. Answers and metered statistics are
//! byte-identical with spilling on or off; [`JobStats`] additionally
//! reports `spilled_bytes` / `spill_files` / `spill_merge_passes`.
//!
//! Both cost models are provided: the paper's per-partition model
//! ([`cost::CostModelKind::Gumbo`], Eq. 2) and the aggregate model of Wang &
//! Chan / MRShare it refines ([`cost::CostModelKind::Wang`], Eq. 3).
//!
//! ## The estimation layer
//!
//! [`estimate`] packages plan-time cost estimates as [`JobEstimate`]s
//! attached to [`Job`]s, so the numbers the planner optimizes travel with
//! each job into its [`JobStats`] (estimated next to observed cost);
//! [`list_schedule_makespan`] is the DAG net-time model behind
//! [`ProgramStats::predicted_net_time`].

pub mod batch_shuffle;
pub mod cluster;
pub mod cost;
pub mod dag;
pub mod estimate;
pub mod executor;
pub mod hash;
pub mod job;
pub mod message;
pub mod metrics;
pub mod profile;
pub mod program;
pub mod shuffle;

pub use batch_shuffle::{BatchGroupStream, BatchPartition, Group, PairBatch, TupleStore};
pub use cluster::Cluster;
pub use cost::{job_cost, CostConstants, CostModelKind};
pub use dag::{DagNode, JobDag};
pub use estimate::{list_schedule_makespan, JobEstimate};
pub use executor::{EngineConfig, Executor, ExecutorKind, MAX_REDUCE_TASKS};
pub use job::{Emitter, Job, JobConfig, Mapper, OutputSink, Reducer, ReducerPolicy};
pub use message::{IdSet, Message, MsgRef, MsgView, Payload, PayloadView};
pub use metrics::{JobStats, ProgramStats};
pub use profile::{InputPartition, JobProfile};
pub use program::MrProgram;
pub use shuffle::{MemBudget, MemoryBudget, ShuffleSpill, SpillStats};

#[cfg(test)]
mod proptests;
