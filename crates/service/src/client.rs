//! A blocking client for the gumbo-serve protocol — used by the CLI's
//! `query`/`shutdown` subcommands and by the service-level test suite.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use gumbo_common::{Relation, Tuple};
use gumbo_obs::json::Json;

use crate::protocol::{Frame, Request};

/// A client-side failure.
#[derive(Debug)]
pub enum ServiceError {
    /// Transport-level failure.
    Io(std::io::Error),
    /// The server answered with an `error` frame.
    Remote(String),
    /// The server sent something the protocol doesn't allow here.
    Protocol(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "service i/o error: {e}"),
            ServiceError::Remote(m) => write!(f, "server error: {m}"),
            ServiceError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

/// A complete, successful query reply.
#[derive(Debug)]
pub struct QueryReply {
    /// Every streamed output relation, rebuilt in arrival order (the
    /// query's output order: intermediate `Z`s, then the final output).
    pub relations: Vec<Relation>,
    /// The per-submission report object from the terminal `stats` frame
    /// (see [`crate::protocol::report_to_json`]).
    pub report: Json,
}

impl QueryReply {
    /// A streamed relation by name.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.iter().find(|r| r.name().as_str() == name)
    }

    fn report_u64(&self, key: &str) -> Option<u64> {
        self.report.get(key).and_then(Json::as_u64)
    }

    /// When the submission entered the queue (monotonic ns, server's
    /// obs epoch).
    pub fn queued_ns(&self) -> Option<u64> {
        self.report_u64("queued_ns")
    }

    /// When the submission was admitted.
    pub fn admitted_ns(&self) -> Option<u64> {
        self.report_u64("admitted_ns")
    }

    /// When the submission's last job committed.
    pub fn completed_ns(&self) -> Option<u64> {
        self.report_u64("completed_ns")
    }

    /// Queue wait in nanoseconds.
    pub fn queue_wait_ns(&self) -> Option<u64> {
        self.report_u64("queue_wait_ns")
    }
}

/// A connected protocol client. One outstanding request at a time.
pub struct ServiceClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ServiceClient {
    /// Connect once.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<ServiceClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone()?;
        Ok(ServiceClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Connect with retries — the readiness probe for freshly spawned
    /// servers (CI starts `gumbo-serve` in the background and the first
    /// client may race the bind).
    pub fn connect_retry(
        addr: impl ToSocketAddrs + Clone,
        attempts: u32,
        delay: Duration,
    ) -> std::io::Result<ServiceClient> {
        let mut last = None;
        for _ in 0..attempts.max(1) {
            match ServiceClient::connect(addr.clone()) {
                Ok(client) => return Ok(client),
                Err(e) => last = Some(e),
            }
            std::thread::sleep(delay);
        }
        Err(last.unwrap_or_else(|| std::io::Error::other("no connection attempts made")))
    }

    fn send(&mut self, request: &Request) -> Result<(), ServiceError> {
        let mut line = request.to_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        Ok(())
    }

    fn read_frame(&mut self) -> Result<Frame, ServiceError> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(ServiceError::Protocol("connection closed mid-reply".into()));
            }
            if !line.trim().is_empty() {
                return Frame::parse(&line).map_err(ServiceError::Protocol);
            }
        }
    }

    /// Submit an SGF program for `tenant` (optionally declaring its
    /// fair-share weight) and collect the full streamed reply.
    pub fn query(
        &mut self,
        tenant: &str,
        weight: Option<f64>,
        sgf: &str,
    ) -> Result<QueryReply, ServiceError> {
        self.send(&Request::Query {
            tenant: tenant.to_string(),
            weight,
            sgf: sgf.to_string(),
        })?;
        // Each declared relation's rows, built in bulk once the reply ends.
        let mut streamed: Vec<(String, usize, Vec<Tuple>)> = Vec::new();
        loop {
            match self.read_frame()? {
                Frame::Rel { name, arity, .. } => {
                    streamed.push((name, arity, Vec::new()));
                }
                Frame::Rows { name, rows } => {
                    let (_, _, tuples) = streamed
                        .iter_mut()
                        .rev()
                        .find(|(declared, _, _)| *declared == name)
                        .ok_or_else(|| {
                            ServiceError::Protocol(format!("rows for undeclared relation {name}"))
                        })?;
                    tuples.extend(rows);
                }
                Frame::Stats { report } => {
                    let relations = (streamed.into_iter())
                        .map(|(name, arity, tuples)| Relation::from_tuples(name, arity, tuples))
                        .collect::<gumbo_common::Result<_>>()
                        .map_err(|e| ServiceError::Protocol(e.to_string()))?;
                    return Ok(QueryReply { relations, report });
                }
                Frame::Error { message } => return Err(ServiceError::Remote(message)),
                other => {
                    return Err(ServiceError::Protocol(format!(
                        "unexpected frame {other:?} in a query reply"
                    )))
                }
            }
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ServiceError> {
        self.send(&Request::Ping)?;
        match self.read_frame()? {
            Frame::Pong => Ok(()),
            other => Err(ServiceError::Protocol(format!(
                "expected pong, got {other:?}"
            ))),
        }
    }

    /// Ask the server to drain and stop; returns its final
    /// `(accepted, completed)` counters.
    pub fn shutdown(&mut self) -> Result<(u64, u64), ServiceError> {
        self.send(&Request::Shutdown)?;
        match self.read_frame()? {
            Frame::Bye {
                accepted,
                completed,
            } => Ok((accepted, completed)),
            Frame::Error { message } => Err(ServiceError::Remote(message)),
            other => Err(ServiceError::Protocol(format!(
                "expected bye, got {other:?}"
            ))),
        }
    }
}
