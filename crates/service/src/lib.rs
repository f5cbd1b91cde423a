//! # gumbo-service — resident multi-tenant query service
//!
//! A thin, dependency-free network layer over the gumbo engine: a
//! thread-per-connection TCP server (`gumbo-serve`) speaking a
//! line-delimited JSON protocol, with **fair-share admission charged
//! measured service time** between tenants.
//!
//! The moving parts:
//!
//! - [`protocol`] — the wire grammar: [`protocol::Request`] lines from
//!   clients, [`protocol::Frame`] lines back from the server, plus the
//!   Value/Json codec and the shared stats vocabulary
//!   ([`protocol::stats_to_json`], [`protocol::report_to_json`]).
//! - [`server`] — [`server::serve`] binds the accept loop, the
//!   dispatcher pool, and the [`gumbo_sched::AdmissionQueue`] together
//!   behind a [`server::ServerHandle`]. Every admitted query runs
//!   through the *identical* `engine.eval().on(runtime).run(dfs, query)`
//!   path as the one-shot CLI, so streamed answers are byte-identical
//!   to direct evaluation, and is planned there only: when it finishes,
//!   its tenant is charged the wall seconds it took.
//! - [`client`] — [`client::ServiceClient`], a blocking client used by
//!   the CLI subcommands and the service-level test suite.
//!
//! ## Drain
//!
//! Graceful shutdown has two triggers: a `shutdown` protocol request,
//! or a process signal (SIGTERM/SIGINT) when [`install_signal_drain`]
//! has been called. Both funnel into the same drain path: stop
//! accepting connections and submissions, finish every already-accepted
//! query, stream its frames, flush the DFS, then exit. The drain
//! invariant — `accepted == completed` — is reported in the final
//! [`server::ServeSummary`] and asserted by the test suite.

pub mod client;
pub mod protocol;
pub mod server;

use std::sync::atomic::{AtomicBool, Ordering};

use gumbo_obs::{Counter, Gauge};

pub use client::{QueryReply, ServiceClient, ServiceError};
pub use protocol::{Frame, Request, FRAME_ROWS};
pub use server::{serve, ServeConfig, ServeSummary, ServerHandle, MAX_REQUEST_BYTES};

/// Connections accepted by the server.
pub static SVC_CONNECTIONS: Counter = Counter::new("svc.connections");
/// Query submissions received (before admission).
pub static SVC_SUBMITTED: Counter = Counter::new("svc.submitted");
/// Submissions admitted by the fair-share ledger.
pub static SVC_ADMITTED: Counter = Counter::new("svc.admitted");
/// Row frames streamed back to clients.
pub static SVC_FRAMES: Counter = Counter::new("svc.streamed_frames");
/// Submissions fully completed (reply sent or abandoned by client).
pub static SVC_COMPLETED: Counter = Counter::new("svc.completed");
/// Current admission-queue depth.
pub static SVC_QUEUE_DEPTH: Gauge = Gauge::new("svc.queue_depth");

/// Process-wide drain request, set by [`request_drain`] or by a signal
/// handler installed with [`install_signal_drain`]. Each server polls it
/// every 50 ms on a watcher thread and begins its drain when it is set.
static GLOBAL_DRAIN: AtomicBool = AtomicBool::new(false);

/// Has a process-wide drain been requested?
pub fn drain_requested() -> bool {
    GLOBAL_DRAIN.load(Ordering::SeqCst)
}

/// Request a process-wide drain (as a signal handler would).
pub fn request_drain() {
    GLOBAL_DRAIN.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
extern "C" fn drain_on_signal(_signum: i32) {
    // Only async-signal-safe work here: a single atomic store.
    GLOBAL_DRAIN.store(true, Ordering::SeqCst);
}

/// Install SIGTERM/SIGINT handlers that request a graceful drain
/// instead of killing the process outright. Uses the libc `signal`
/// symbol directly so no crate dependency is needed.
#[cfg(unix)]
pub fn install_signal_drain() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(SIGTERM, drain_on_signal);
        signal(SIGINT, drain_on_signal);
    }
}

/// On non-unix targets signal-driven drain is unavailable; the
/// `shutdown` protocol request still drains gracefully.
#[cfg(not(unix))]
pub fn install_signal_drain() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_flag_round_trip() {
        assert!(!drain_requested() || GLOBAL_DRAIN.load(Ordering::SeqCst));
        request_drain();
        assert!(drain_requested());
        GLOBAL_DRAIN.store(false, Ordering::SeqCst);
        assert!(!drain_requested());
    }
}
