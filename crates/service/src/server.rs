//! The resident query server: thread-per-connection front end, bounded
//! fair-share admission, streaming replies, graceful drain.
//!
//! ```text
//! TcpListener ── handler thread per connection
//!                   │  parse request
//!                   ▼
//!             AdmissionQueue  (bounded; fair share of measured service time)
//!                   │  admit                       ▲ charge wall seconds
//!                   ▼                              │
//!             dispatcher pool (max_in_flight threads)
//!                   │  engine.eval().on(runtime).run(dfs, query)
//!                   ▼
//!             reply channel ── handler streams rel/frame/stats lines
//! ```
//!
//! Every dispatcher evaluates through the *same* engine/runtime code
//! path as the one-shot CLI — every planned program runs on the DAG
//! scheduler, sized by the engine's options — which is what makes
//! service answers byte-identical to direct evaluation. The dispatcher
//! is also the only place a query is planned: admission needs no
//! estimate, because each finished query charges its tenant the wall
//! seconds it took.
//!
//! **Drain** (a `shutdown` request, [`ServerHandle::shutdown`], or a
//! SIGTERM via [`crate::install_signal_drain`]): the accept loop stops,
//! the queue closes (new submissions are refused with an error frame),
//! dispatchers finish every already-accepted submission, handlers stream
//! every reply, the DFS flushes, and the server exits with
//! `accepted == completed` — zero lost work.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gumbo_common::Relation;
use gumbo_core::GumboEngine;
use gumbo_mr::Executor;
use gumbo_sched::{AdmissionQueue, SubmissionReport};
use gumbo_sgf::{parse_program, SgfQuery};
use gumbo_storage::Dfs;

use crate::protocol::{relation_lines, report_to_json, Frame, Request};
use crate::{
    drain_requested, SVC_ADMITTED, SVC_COMPLETED, SVC_CONNECTIONS, SVC_FRAMES, SVC_QUEUE_DEPTH,
    SVC_SUBMITTED,
};

/// Longest request line accepted, newline included. A line that reaches
/// it unterminated is answered with one `error` frame and the connection
/// is closed — a client that never sends `\n` costs at most this much
/// memory.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Server sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Bounded admission-queue capacity (submits block when full).
    pub queue_capacity: usize,
    /// Dispatcher threads = submissions evaluated concurrently. Each runs
    /// its query's jobs inline at one job slot; at more, each job in
    /// flight gets a worker of its own from the process-wide pool
    /// (`gumbo_mr::pool`), so every in-flight query's jobs run at once.
    pub max_in_flight: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            max_in_flight: 2,
        }
    }
}

/// What the server counted over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Submissions accepted into the admission queue.
    pub accepted: u64,
    /// Submissions fully processed (reply delivered to its handler).
    /// Equal to `accepted` after a clean drain — zero lost work.
    pub completed: u64,
}

/// One accepted query waiting in (or admitted from) the queue.
struct Work {
    query: SgfQuery,
    reply: mpsc::Sender<Result<Outcome, String>>,
}

/// A finished submission, ready to stream back.
struct Outcome {
    report: SubmissionReport,
    relations: Vec<Arc<Relation>>,
}

/// State shared by the supervisor, handlers, and dispatchers.
struct Shared {
    engine: GumboEngine,
    runtime: Executor,
    dfs: Arc<dyn Dfs>,
    queue: AdmissionQueue<Work>,
    /// Set once a drain begins (shutdown request, handle, or signal).
    draining: AtomicBool,
    /// Submissions fully processed (outcome handed to the handler).
    completed: AtomicU64,
    /// Connections accepted.
    connections: AtomicU64,
    /// The listener's address: [`Shared::begin_drain`] connects to it once
    /// to wake the supervisor's blocking `accept`.
    addr: SocketAddr,
}

/// A running server. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::shutdown`] + [`ServerHandle::join`] (or send the
/// protocol's `shutdown` request).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    supervisor: JoinHandle<ServeSummary>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Submissions accepted into the queue so far.
    pub fn accepted(&self) -> u64 {
        self.shared.queue.accepted()
    }

    /// Submissions fully processed so far.
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::SeqCst)
    }

    /// Begin a graceful drain (idempotent): stop accepting, finish the
    /// backlog, flush the DFS.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Wait for the server to finish draining and return its counters.
    pub fn join(self) -> ServeSummary {
        self.supervisor.join().expect("server supervisor panicked")
    }
}

impl Shared {
    fn begin_drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            gumbo_obs::event("svc:drain", |f| {
                f.u64("accepted", self.queue.accepted());
                f.u64("completed", self.completed.load(Ordering::SeqCst));
            });
            // Wake the blocking accept: the supervisor sees the drain and
            // drops this connection uncounted. Once the listener is gone
            // the connect is refused at once, which is just as good.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        }
        self.queue.close();
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || drain_requested()
    }
}

/// Start serving on `listener`. The engine's options decide the
/// evaluation path (scheduler config, budget) exactly as
/// they do for one-shot evaluation; `dfs` holds the base relations and
/// receives every committed output.
pub fn serve(
    listener: TcpListener,
    dfs: Arc<dyn Dfs>,
    engine: GumboEngine,
    config: ServeConfig,
) -> std::io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        runtime: *engine.runtime(),
        engine,
        dfs,
        queue: AdmissionQueue::new(config.queue_capacity),
        draining: AtomicBool::new(false),
        completed: AtomicU64::new(0),
        connections: AtomicU64::new(0),
        addr,
    });

    let supervisor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("gumbo-serve".into())
            .spawn(move || supervise(listener, shared, config))
            .expect("spawn supervisor thread")
    };

    Ok(ServerHandle {
        addr,
        shared,
        supervisor,
    })
}

/// The supervisor: accept loop + lifecycle. Owns the dispatcher pool
/// and the handler thread registry; returns the final counters after
/// the drain completes.
fn supervise(listener: TcpListener, shared: Arc<Shared>, config: ServeConfig) -> ServeSummary {
    let dispatchers: Vec<JoinHandle<()>> = (0..config.max_in_flight.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("gumbo-dispatch-{i}"))
                .spawn(move || dispatch_loop(&shared))
                .expect("spawn dispatcher thread")
        })
        .collect();
    let handlers: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());

    // A signal handler can only set the process-wide drain flag; it
    // cannot wake the blocking accept, so a watcher polls the flag.
    {
        let shared = Arc::downgrade(&shared);
        std::thread::Builder::new()
            .name("gumbo-drain-watch".into())
            .spawn(move || watch_drain_flag(&shared))
            .expect("spawn drain watcher");
    }

    // Accept blocks; `begin_drain` wakes it with a connection of its own.
    while let Ok((stream, peer)) = listener.accept() {
        if shared.is_draining() {
            // The wake connection (or a client that raced it): not served,
            // not counted.
            break;
        }
        shared.connections.fetch_add(1, Ordering::SeqCst);
        SVC_CONNECTIONS.incr();
        gumbo_obs::event("svc:accept", |f| {
            f.str("peer", &peer.to_string());
        });
        let shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("gumbo-conn".into())
            .spawn(move || handle_connection(stream, &shared))
            .expect("spawn connection handler");
        handlers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(handle);
    }
    // Drain: no new connections; refuse new submissions; finish the
    // backlog; let every handler stream its replies out.
    drop(listener);
    shared.begin_drain();
    for d in dispatchers {
        let _ = d.join();
    }
    for h in handlers.into_inner().unwrap_or_else(|e| e.into_inner()) {
        let _ = h.join();
    }
    // Everything is committed — make it durable before reporting done.
    let _ = shared.dfs.flush();
    ServeSummary {
        connections: shared.connections.load(Ordering::SeqCst),
        accepted: shared.queue.accepted(),
        completed: shared.completed.load(Ordering::SeqCst),
    }
}

/// Turn a process-wide drain request ([`drain_requested`], set by a
/// signal) into this server's drain. Holds the server weakly and stops
/// once it drains or is gone.
fn watch_drain_flag(shared: &Weak<Shared>) {
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let Some(shared) = shared.upgrade() else {
            return;
        };
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        if drain_requested() {
            return shared.begin_drain();
        }
    }
}

/// A dispatcher: admit fairly, evaluate, charge the tenant the measured
/// wall time, reply. Exits when the queue is closed *and* fully drained,
/// so every accepted submission completes.
fn dispatch_loop(shared: &Shared) {
    while let Some(entry) = shared.queue.admit() {
        SVC_ADMITTED.incr();
        SVC_QUEUE_DEPTH.set(shared.queue.depth() as u64);
        gumbo_obs::event("svc:admit", |f| {
            f.str("tenant", &entry.tenant);
            f.f64("weight", entry.weight);
            f.u64(
                "queue_wait_ns",
                entry.admitted_ns.saturating_sub(entry.queued_ns),
            );
        });
        let started = Instant::now();
        let result = shared
            .engine
            .eval()
            .on(&shared.runtime)
            .run(&*shared.dfs, &entry.payload.query);
        let completed_ns = gumbo_obs::now_ns();
        // Collect every output relation (final and intermediate Zs) for
        // streaming, in query order.
        let result = result.and_then(|stats| {
            let names = entry.payload.query.output_names();
            let relations = names.iter().map(|name| shared.dfs.peek(name));
            Ok((stats, relations.collect::<Result<Vec<_>, _>>()?))
        });
        let wall_seconds = started.elapsed().as_secs_f64();
        shared.queue.charge(&entry.tenant, wall_seconds);
        let outcome = result
            .map_err(|e| e.to_string())
            .map(|(stats, relations)| Outcome {
                report: SubmissionReport {
                    tenant: entry.tenant.clone(),
                    stats,
                    wall_seconds,
                    queued_ns: entry.queued_ns,
                    admitted_ns: entry.admitted_ns,
                    completed_ns,
                },
                relations,
            });
        gumbo_obs::event("svc:complete", |f| {
            f.str("tenant", &entry.tenant);
            f.bool("ok", outcome.is_ok());
        });
        // The handler may have hung up (client died mid-wait); the
        // submission still counts as completed — the work committed.
        let _ = entry.payload.reply.send(outcome);
        SVC_COMPLETED.incr();
        shared.completed.fetch_add(1, Ordering::SeqCst);
    }
}

/// One connection: read request lines, answer each. Returns (closing
/// the connection) on EOF, protocol errors at the transport level, or
/// when a drain begins while the line is idle.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    // A finite read timeout lets idle handlers notice the drain.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        // A read may time out mid-line; partial bytes stay in `line`
        // across retries, so requests are never torn.
        loop {
            let room = (MAX_REQUEST_BYTES - line.len()) as u64;
            match reader.by_ref().take(room).read_until(b'\n', &mut line) {
                Ok(0) => return,
                Ok(_) if line.len() == MAX_REQUEST_BYTES && !line.ends_with(b"\n") => {
                    return refuse_oversized(&mut writer, &mut reader);
                }
                Ok(_) => break,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if shared.is_draining() && line.is_empty() {
                        // Idle connection during a drain: hang up so the
                        // supervisor can finish joining handlers.
                        return;
                    }
                }
                Err(_) => return,
            }
        }
        let request = match std::str::from_utf8(&line) {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => Request::parse(text),
            Err(_) => Err("request is not valid UTF-8".to_string()),
        };
        match request {
            Ok(Request::Ping) => {
                if write_frame(&mut writer, &Frame::Pong).is_err() {
                    return;
                }
            }
            Ok(Request::Shutdown) => {
                serve_shutdown(&mut writer, shared);
                return;
            }
            Ok(Request::Query {
                tenant,
                weight,
                sgf,
            }) => {
                if !serve_query(&mut writer, shared, &tenant, weight, &sgf) {
                    return;
                }
            }
            Err(message) => {
                if write_frame(&mut writer, &Frame::Error { message }).is_err() {
                    return;
                }
            }
        }
    }
}

/// Refuse a request line that reached [`MAX_REQUEST_BYTES`] unterminated:
/// one `error` frame, then close. Closing a socket with unread input
/// makes the kernel reset the connection, which can destroy the frame in
/// flight — so half-close, then discard what the client already sent
/// until it stops (EOF, a quiet read timeout, or one second).
fn refuse_oversized(writer: &mut TcpStream, reader: &mut impl Read) {
    let message = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
    let _ = write_frame(writer, &Frame::Error { message });
    let _ = writer.shutdown(Shutdown::Write);
    let deadline = Instant::now() + Duration::from_secs(1);
    let mut sink = [0u8; 8192];
    while Instant::now() < deadline && matches!(reader.read(&mut sink), Ok(n) if n > 0) {}
}

/// Answer one query request. Returns false when the connection is dead.
fn serve_query(
    writer: &mut TcpStream,
    shared: &Shared,
    tenant: &str,
    weight: Option<f64>,
    sgf: &str,
) -> bool {
    let query = match parse_program(sgf) {
        Ok(q) => q,
        Err(e) => {
            return write_frame(
                writer,
                &Frame::Error {
                    message: format!("bad SGF program: {e}"),
                },
            )
            .is_ok();
        }
    };
    SVC_SUBMITTED.incr();
    gumbo_obs::event("svc:submit", |f| {
        f.str("tenant", tenant);
        f.u64("queue_depth", shared.queue.depth() as u64);
    });
    let (reply_tx, reply_rx) = mpsc::channel();
    let work = Work {
        query,
        reply: reply_tx,
    };
    if shared.queue.submit(tenant, weight, work).is_err() {
        return write_frame(
            writer,
            &Frame::Error {
                message: "server is draining; submission refused".into(),
            },
        )
        .is_ok();
    }
    SVC_QUEUE_DEPTH.set(shared.queue.depth() as u64);
    // The dispatcher pool always drains the queue (even during
    // shutdown), so this receive terminates.
    match reply_rx.recv() {
        Ok(Ok(outcome)) => {
            for relation in &outcome.relations {
                let streamed = relation_lines(relation, |line, rows| {
                    if rows {
                        SVC_FRAMES.incr();
                        gumbo_obs::event("svc:stream", |f| {
                            f.str("tenant", tenant);
                            f.str("relation", relation.name().as_str());
                        });
                    }
                    write_line(writer, line)
                });
                if streamed.is_err() {
                    return false;
                }
            }
            let report = report_to_json(&outcome.report);
            write_frame(writer, &Frame::Stats { report }).is_ok()
        }
        Ok(Err(message)) => write_frame(writer, &Frame::Error { message }).is_ok(),
        Err(_) => write_frame(
            writer,
            &Frame::Error {
                message: "internal error: dispatcher dropped the reply".into(),
            },
        )
        .is_ok(),
    }
}

/// Answer a shutdown request: begin the drain, wait for every accepted
/// submission to complete, then acknowledge with the final counters.
fn serve_shutdown(writer: &mut TcpStream, shared: &Shared) {
    shared.begin_drain();
    loop {
        let accepted = shared.queue.accepted();
        let completed = shared.completed.load(Ordering::SeqCst);
        if completed >= accepted {
            let _ = write_frame(
                writer,
                &Frame::Bye {
                    accepted,
                    completed,
                },
            );
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn write_frame(writer: &mut TcpStream, frame: &Frame) -> std::io::Result<()> {
    write_line(writer, &frame.to_line())
}

/// Write one wire line and its newline in a single write.
fn write_line(writer: &mut TcpStream, line: &str) -> std::io::Result<()> {
    let mut text = Vec::with_capacity(line.len() + 1);
    text.extend_from_slice(line.as_bytes());
    text.push(b'\n');
    writer.write_all(&text)
}
