//! The TCP client for the serve protocol.
//!
//! [`ServeClient`] is the workspace's one client for the line protocol
//! over a socket: `serve-load`'s [`crate::load::run_pass`], the chaos
//! tests and the end-to-end tests all drive it. It holds one lazily
//! (re)connected socket with `TCP_NODELAY`, one send path
//! ([`ServeClient::send_request`], or [`ServeClient::send_raw_line`] for
//! negative-path tests) and one receive path
//! ([`ServeClient::recv_response`]), which keeps a partial line across
//! timeouts so a read that times out mid-line never tears the framing.
//!
//! On that pair, [`ServeClient::run_job`] assumes the network is hostile
//! — connections drop, lines are torn, responses vanish — and heals by
//! construction:
//!
//! * **Deterministic retry.** Failed attempts (I/O errors, EOF,
//!   response timeouts, rejections, execution errors) are retried under
//!   one fixed [`RetryPolicy`] (8 attempts, 5 ms base, 1 s cap):
//!   exponential backoff whose jitter is keyed
//!   on the job's cache key and attempt number, so a given (job,
//!   attempt) always waits the same time — reproducible load patterns
//!   even through chaos.
//! * **Idempotent re-submission.** Jobs are content-addressed: a
//!   re-submitted job hashes to the same [`cestim_exec::CacheKey`], so
//!   the server serves the duplicate from its result cache and every
//!   attempt observes a byte-identical payload. Retrying is therefore
//!   always safe.
//! * **Garbage tolerance.** Unparseable lines, responses for unknown
//!   ids, and `error` responses without an id are skipped, never
//!   fatal.

use crate::protocol::{parse_response, render_request, Request, Response};
use cestim_exec::{CacheKey, Job, RetryPolicy};
use cestim_sim::ExecJob;
use serde::Value;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Retry policy of every request: 8 attempts, backing off from 5 ms
/// to at most 1 s.
const RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 8,
    base_ms: 5,
    max_ms: 1_000,
};
/// Client identity sent with every [`ServeClient::run_job`] request
/// (its fair-queuing lane).
const CLIENT: &str = "resilient";
/// Scheduling priority of [`ServeClient::run_job`] requests.
const PRIORITY: u32 = 1;
/// Per-request deadline of [`ServeClient::run_job`] requests (none).
const DEADLINE_MS: u64 = 0;
/// How long one attempt waits for progress before being abandoned.
/// The timer restarts whenever a response for the request arrives, so
/// long executions are not cut off mid-run.
const RECV_TIMEOUT: Duration = Duration::from_secs(2);
/// Control requests have no cache key; their backoff is keyed on this
/// fixed one so its jitter stays deterministic.
const CONTROL_KEY: CacheKey = CacheKey {
    schema: 0,
    content: 0xC0_47_01,
};

/// Cumulative client-side resilience counters.
#[derive(Debug, Default, Clone)]
pub struct ClientReport {
    /// Total attempts sent (including the first of each request).
    pub attempts: u64,
    /// Open connections dropped after an I/O failure, EOF, or an
    /// abandoned attempt; the next send reconnects.
    pub reconnects: u64,
    /// Execution `error` responses observed for our ids.
    pub exec_errors: u64,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Partial line carried across receive timeouts: a read timeout can
    /// land mid-line, and the bytes already consumed from the socket
    /// must survive until the line's newline arrives.
    pending: Vec<u8>,
}

/// The client. Not thread-safe; one instance per submitting thread
/// (each holds its own connection).
pub struct ServeClient {
    /// Server (or chaos proxy) address: any `HOST:PORT` that
    /// [`TcpStream::connect`] accepts, host names included.
    addr: String,
    conn: Option<Conn>,
    report: ClientReport,
}

impl ServeClient {
    /// A client for `addr`; connects lazily on first use.
    pub fn new(addr: impl ToString) -> ServeClient {
        ServeClient {
            addr: addr.to_string(),
            conn: None,
            report: ClientReport::default(),
        }
    }

    /// A client for `addr`, connected now.
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect(addr: impl ToString) -> io::Result<ServeClient> {
        let mut client = ServeClient::new(addr);
        client.ensure_conn()?;
        Ok(client)
    }

    /// Cumulative resilience counters.
    pub fn report(&self) -> &ClientReport {
        &self.report
    }

    /// Sends one request, connecting first if needed.
    ///
    /// # Errors
    ///
    /// Returns any connect or write error; a failed write drops the
    /// connection.
    pub fn send_request(&mut self, req: &Request) -> io::Result<()> {
        self.send_raw_line(&render_request(req))
    }

    /// Sends one raw protocol line verbatim, bypassing request
    /// rendering — for exercising the server's negative paths.
    ///
    /// # Errors
    ///
    /// As [`ServeClient::send_request`].
    pub fn send_raw_line(&mut self, line: &str) -> io::Result<()> {
        let conn = self.ensure_conn()?;
        let sent = writeln!(conn.writer, "{line}").and_then(|()| conn.writer.flush());
        if sent.is_err() {
            self.drop_conn();
        }
        sent
    }

    /// Receives the next response, waiting up to `timeout`. A line cut
    /// off by the timeout is kept and completed by the next call.
    ///
    /// # Errors
    ///
    /// `TimedOut` when no whole line arrived in time, `InvalidData` for
    /// an unparseable line (which is consumed), `NotConnected` before
    /// any send, or a transport error or EOF, which drops the connection.
    pub fn recv_response(&mut self, timeout: Duration) -> io::Result<Response> {
        let deadline = Instant::now() + timeout;
        let Some(conn) = self.conn.as_mut() else {
            return Err(io::ErrorKind::NotConnected.into());
        };
        match read_line_until(conn, deadline) {
            Ok(Some(line)) => parse_response(&line)
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unparseable response")),
            Ok(None) => Err(io::Error::new(io::ErrorKind::TimedOut, "no response")),
            Err(e) => {
                self.drop_conn();
                Err(e)
            }
        }
    }

    /// Runs one job to a byte-stable payload, healing connection drops,
    /// torn lines, rejections, and transient execution failures by
    /// deterministic retry.
    ///
    /// # Errors
    ///
    /// Returns an error only once the retry budget is exhausted.
    pub fn run_job(&mut self, id: &str, job: &ExecJob) -> io::Result<Value> {
        self.with_retry(&job.cache_key(), |client| {
            client.report.attempts += 1;
            client.attempt_job(id, job)
        })
        .map_err(|(attempts, failure)| {
            io::Error::other(format!(
                "request `{id}` failed after {attempts} attempts: {}",
                failure.describe()
            ))
        })
    }

    /// Sends a `stats` request and returns the fields object.
    ///
    /// # Errors
    ///
    /// Returns an error when no response arrives within the retry budget.
    pub fn stats(&mut self) -> io::Result<Value> {
        self.control(Request::Stats).map(|resp| match resp {
            Response::Stats(fields) => fields,
            _ => Value::Null,
        })
    }

    /// Sends a `health` request and returns the server's answer.
    ///
    /// # Errors
    ///
    /// Returns an error when no response arrives within the retry budget.
    pub fn health(&mut self) -> io::Result<Response> {
        self.control(Request::Health)
    }

    /// Sends a `shutdown` request and waits for its acknowledgement, so
    /// the server has begun draining when this returns.
    ///
    /// # Errors
    ///
    /// Returns an error when no acknowledgement arrives within the
    /// retry budget.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.control(Request::Shutdown).map(drop)
    }

    /// Runs `once` under the retry policy, dropping the connection after
    /// a transport failure or timeout and backing off (jitter keyed on
    /// `key`) between attempts. On exhaustion returns the attempt count
    /// and the last failure.
    fn with_retry<T>(
        &mut self,
        key: &CacheKey,
        mut once: impl FnMut(&mut ServeClient) -> Result<T, Failure>,
    ) -> Result<T, (u32, Failure)> {
        let mut attempt = 1u32;
        loop {
            match once(self) {
                Ok(value) => return Ok(value),
                Err(failure) => {
                    // Rejections and execution errors arrived on a
                    // healthy connection; keep it for the retry.
                    if matches!(failure, Failure::Io(_) | Failure::Timeout) {
                        self.drop_conn();
                    }
                    if !RETRY.allows_retry(attempt) {
                        return Err((attempt, failure));
                    }
                    std::thread::sleep(RETRY.backoff(attempt, key));
                    attempt += 1;
                }
            }
        }
    }

    /// Sends one control request and waits for its (typed) response,
    /// retrying over reconnects.
    fn control(&mut self, req: Request) -> io::Result<Response> {
        self.with_retry(&CONTROL_KEY, |client| client.control_once(&req))
            .map_err(|(_, failure)| match failure {
                Failure::Io(e) => e,
                other => io::Error::new(io::ErrorKind::TimedOut, other.describe()),
            })
    }

    fn control_once(&mut self, req: &Request) -> Result<Response, Failure> {
        self.send_request(req).map_err(Failure::Io)?;
        let deadline = Instant::now() + RECV_TIMEOUT;
        while Instant::now() < deadline {
            // Anything else is stale run traffic on this connection.
            if let Some(
                resp @ (Response::Stats(_)
                | Response::Pong
                | Response::Health { .. }
                | Response::Ready { .. }
                | Response::Gc { .. }
                | Response::ShuttingDown),
            ) = self.poll(deadline)?
            {
                return Ok(resp);
            }
        }
        Err(Failure::Timeout)
    }

    /// One attempt: submit, then wait for a terminal response with
    /// our id.
    fn attempt_job(&mut self, id: &str, job: &ExecJob) -> Result<Value, Failure> {
        self.submit(id, job)?;
        // Progress-based abandon: the window restarts every time the
        // server says something about this request.
        let mut abandon_at = Instant::now() + RECV_TIMEOUT;
        while Instant::now() < abandon_at {
            let Some(resp) = self.poll(abandon_at)? else {
                continue;
            };
            match resp {
                Response::Accepted { id: rid, .. } | Response::Started { id: rid, .. }
                    if rid == id =>
                {
                    abandon_at = Instant::now() + RECV_TIMEOUT;
                }
                Response::Result {
                    id: rid, payload, ..
                } if rid == id => return Ok(payload),
                Response::Rejected {
                    id: rid, reason, ..
                } if rid == id => return Err(Failure::Rejected(reason)),
                Response::Error {
                    id: Some(rid),
                    code,
                    message,
                } if rid == id => {
                    self.report.exec_errors += 1;
                    return Err(Failure::Exec(code, message));
                }
                // Stale ids from prior attempts, other clients'
                // traffic, id-less errors (garbage we injected into
                // the server): all skipped.
                _ => {}
            }
        }
        Err(Failure::Timeout)
    }

    fn submit(&mut self, id: &str, job: &ExecJob) -> Result<(), Failure> {
        self.send_request(&Request::Run {
            id: id.to_string(),
            client: CLIENT.to_string(),
            priority: PRIORITY,
            deadline_ms: DEADLINE_MS,
            job: job.clone(),
        })
        .map_err(Failure::Io)
    }

    /// [`ServeClient::recv_response`] for the retrying paths: `Ok(None)`
    /// when nothing arrived by `until` or the line was garbage.
    fn poll(&mut self, until: Instant) -> Result<Option<Response>, Failure> {
        match self.recv_response(until.saturating_duration_since(Instant::now())) {
            Ok(resp) => Ok(Some(resp)),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::TimedOut | io::ErrorKind::InvalidData
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(Failure::Io(e)),
        }
    }

    /// Drops the connection, counting only one that was open.
    fn drop_conn(&mut self) {
        if self.conn.take().is_some() {
            self.report.reconnects += 1;
        }
    }

    fn ensure_conn(&mut self) -> io::Result<&mut Conn> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr.as_str())?;
            stream.set_nodelay(true).ok();
            let reader = BufReader::new(stream.try_clone()?);
            let writer = BufWriter::new(stream);
            self.conn = Some(Conn {
                reader,
                writer,
                pending: Vec::new(),
            });
        }
        Ok(self.conn.as_mut().expect("connection just ensured"))
    }
}

/// Why one attempt failed (decides retry/connection handling).
enum Failure {
    /// Transport failure: connect, send, or receive.
    Io(io::Error),
    /// No progress within the receive window.
    Timeout,
    /// The server rejected admission (reason string).
    Rejected(String),
    /// The server reported an execution error (code, message).
    Exec(String, String),
}

impl Failure {
    fn describe(&self) -> String {
        match self {
            Failure::Io(e) => format!("io: {e}"),
            Failure::Timeout => "timed out waiting for a response".to_string(),
            Failure::Rejected(reason) => format!("rejected: {reason}"),
            Failure::Exec(code, message) => format!("{code}: {message}"),
        }
    }
}

/// Reads one line, waiting until `deadline`; `Ok(None)` on timeout
/// (caller re-checks its own timers), `Err` on EOF or a real
/// transport error. Bytes consumed before a timeout are kept in
/// `conn.pending` so a mid-line timeout never tears the framing.
fn read_line_until(conn: &mut Conn, deadline: Instant) -> io::Result<Option<String>> {
    loop {
        if let Some(pos) = conn.pending.iter().position(|&b| b == b'\n') {
            let rest = conn.pending.split_off(pos + 1);
            let raw = std::mem::replace(&mut conn.pending, rest);
            return Ok(Some(String::from_utf8_lossy(&raw).into_owned()));
        }
        let budget = deadline.saturating_duration_since(Instant::now());
        if budget.is_zero() {
            return Ok(None);
        }
        conn.reader
            .get_ref()
            .set_read_timeout(Some(budget.max(Duration::from_millis(1))))?;
        match conn.reader.read_until(b'\n', &mut conn.pending) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            }
            Ok(_) => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(None)
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::mpsc;

    #[test]
    fn a_refused_connect_is_not_counted_as_a_reconnect() {
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        // The listener is dropped: nothing listens on `addr` any more.
        let mut client = ServeClient::new(addr);
        assert!(client.health().is_err());
        assert_eq!(client.report().reconnects, 0);
    }

    #[test]
    fn a_line_split_by_a_receive_timeout_is_not_torn() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (half_sent, half_arrived) = mpsc::channel::<()>();
        let (resume, resumed) = mpsc::channel::<()>();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.write_all(br#"{"type":"#).unwrap();
            half_sent.send(()).unwrap();
            resumed.recv().unwrap();
            stream.write_all(b"\"pong\"}\n").unwrap();
        });
        let mut client = ServeClient::connect(addr).unwrap();
        half_arrived.recv().unwrap();
        let first = client.recv_response(Duration::from_millis(200));
        assert_eq!(
            first.map_err(|e| e.kind()),
            Err(io::ErrorKind::TimedOut),
            "half a line is not a response"
        );
        resume.send(()).unwrap();
        assert_eq!(
            client.recv_response(Duration::from_secs(10)).unwrap(),
            Response::Pong
        );
        peer.join().unwrap();
    }
}
