//! The TCP front door: `std::net` listener + line framing over the shared
//! [`Service`], one pooled job per connection.
//!
//! Framing is newline-delimited UTF-8 text, one request per line, one
//! response line per request, in order.  A line longer than
//! [`MAX_LINE_BYTES`] gets an
//! `ERR too-large` response and the connection is closed — the server never
//! buffers an unbounded line.  `SHUTDOWN` flips the service flag; the accept
//! loop notices via a self-connection (no async reactor to interrupt a
//! blocking `accept`), drains queued connections and joins the pool.
//!
//! Overload and abuse defence ([`ServerConfig`]):
//!
//! * **Load shedding** — with `max_queue` set the worker pool's backlog is
//!   bounded; a connection arriving past the cap is answered
//!   `ERR overloaded … retry-after-ms=…` and closed instead of queueing
//!   without bound (counted in `shed_requests`).
//! * **Read deadlines** — with `read_timeout` set a connection that dribbles
//!   bytes without completing a line (slow loris) or sits idle past the
//!   deadline is evicted (counted in `timed_out_connections`), so a handful
//!   of hostile sockets cannot pin every worker.

use crate::pool::{SubmitOutcome, WorkerPool};
use crate::protocol::{ErrorCode, ProtocolError, Response, MAX_LINE_BYTES};
use crate::service::Service;
use antennae_parallel::default_threads;
use std::io::{BufWriter, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

/// The retry hint the shed path puts on the wire, milliseconds.
const RETRY_AFTER_MS: u64 = 100;

/// Robustness knobs for the TCP front door.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker thread count (clamped to at least one by the pool).
    pub threads: usize,
    /// Per-connection read deadline.  `None` (the default) waits forever.
    pub read_timeout: Option<Duration>,
    /// Waiting-connection cap on the pool queue.  `None` (the default) is
    /// unbounded.
    pub max_queue: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: default_threads(),
            read_timeout: None,
            max_queue: None,
        }
    }
}

/// A running `orientd` server bound to a local address.
pub struct Server {
    service: Arc<Service>,
    listener: TcpListener,
    addr: SocketAddr,
    config: ServerConfig,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) with the default
    /// worker count ([`default_threads`]).
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        Server::bind_with(addr, Arc::new(Service::new()), default_threads())
    }

    /// Binds to `addr` serving an existing [`Service`] with an explicit
    /// worker count (no deadlines, unbounded queue).
    pub fn bind_with(addr: &str, service: Arc<Service>, threads: usize) -> std::io::Result<Self> {
        Server::bind_with_config(
            addr,
            service,
            ServerConfig {
                threads,
                ..ServerConfig::default()
            },
        )
    }

    /// Binds to `addr` serving an existing [`Service`] with explicit
    /// robustness knobs.
    pub fn bind_with_config(
        addr: &str,
        service: Arc<Service>,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            service,
            listener,
            addr,
            config,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service behind this listener.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Serves until a `SHUTDOWN` request is accepted, then force-closes the
    /// surviving connections, drains the pool and returns.  Blocks the
    /// calling thread.
    pub fn run(self) -> std::io::Result<()> {
        let pool = match self.config.max_queue {
            Some(cap) => WorkerPool::bounded(self.config.threads, cap),
            None => WorkerPool::new(self.config.threads),
        };
        // Weak handles to every live connection so shutdown can unblock
        // workers parked in a read; pruned of dead entries on each accept.
        let connections: Mutex<Vec<Weak<TcpStream>>> = Mutex::new(Vec::new());
        let mut accept_error = None;
        for stream in self.listener.incoming() {
            if self.service.shutdown_requested() {
                break;
            }
            let stream = match stream {
                Ok(stream) => Arc::new(stream),
                // Transient accept errors (EINTR, resource pressure on a
                // single connection) shouldn't kill the server.
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    accept_error = Some(e);
                    break;
                }
            };
            // The deadline applies from the first byte: a slow loris can't
            // hold a worker (or a queue slot's eventual worker) forever.
            let _ = stream.set_read_timeout(self.config.read_timeout);
            {
                let mut connections = connections.lock().expect("connection registry poisoned");
                connections.retain(|weak| weak.strong_count() > 0);
                connections.push(Arc::downgrade(&stream));
            }
            let service = Arc::clone(&self.service);
            let addr = self.addr;
            let shed_stream = Arc::clone(&stream);
            let outcome = pool.try_submit(move || {
                // The connection that carried the SHUTDOWN pokes the
                // listener so the blocking `accept` observes the flag
                // without waiting for an outside caller.  Only that one, and
                // only once its answer is flushed: the accept loop then
                // force-closes every connection, so a poke from any other
                // connection (say one that just closed) could cut the
                // SHUTDOWN answer off mid-WAL-sync.
                if serve_connection(&service, &stream) {
                    let _ = TcpStream::connect(addr);
                }
            });
            if outcome == SubmitOutcome::Rejected {
                // Shed at the front door: one error line, then close.  The
                // write is best-effort — a client that already gave up just
                // sees the reset.
                self.service
                    .stats()
                    .shed_requests
                    .fetch_add(1, Ordering::Relaxed);
                let err = ProtocolError::new(
                    ErrorCode::Overloaded,
                    format!("connection queue is full; retry-after-ms={RETRY_AFTER_MS}"),
                );
                let mut line = Response::Err(err).to_line();
                line.push('\n');
                let _ = (&*shed_stream).write_all(line.as_bytes());
                let _ = shed_stream.shutdown(Shutdown::Both);
            }
            // No shutdown check here: the connection just submitted may be
            // the one answering SHUTDOWN, and it pokes the listener once its
            // answer is out.
        }
        // Kick every worker out of its blocking read so the pool can drain.
        for weak in connections
            .lock()
            .expect("connection registry poisoned")
            .drain(..)
        {
            if let Some(stream) = weak.upgrade() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        pool.shutdown();
        match accept_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Spawns [`Server::run`] on a background thread and returns a handle
    /// that can stop it.  This is what the verify-script smoke test and the
    /// churn replay test use.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let service = Arc::clone(&self.service);
        let thread = std::thread::Builder::new()
            .name("orientd-accept".into())
            .spawn(move || self.run())
            .expect("spawning the accept thread");
        ServerHandle {
            addr,
            service,
            thread: Some(thread),
        }
    }
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Requests shutdown and joins the accept thread.  Live connections are
    /// force-closed by the accept loop on its way out.
    pub fn stop(mut self) -> std::io::Result<()> {
        self.service.request_shutdown();
        // A throwaway connection unblocks the (blocking) `accept` so the
        // loop observes the flag.
        let _ = TcpStream::connect(self.addr);
        match self.thread.take() {
            Some(thread) => thread.join().unwrap_or(Ok(())),
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.service.request_shutdown();
            let _ = TcpStream::connect(self.addr);
            let _ = thread.join();
        }
    }
}

/// Serves one connection: read lines, answer lines, until EOF, an oversized
/// line, or a fatal socket error.  Returns `true` when this connection's
/// request started the shutdown.
///
/// Pipelining: a client that writes a burst of request lines before reading
/// gets the whole burst's responses in one coalesced socket write — after
/// answering a line, every *complete* line already sitting in the read
/// buffer is answered into the `BufWriter` before the single flush.  A
/// well-behaved request/response client sees identical behavior (its lone
/// line is followed by an empty buffer), while a pipelined burst of `m`
/// requests pays one syscall instead of `m` (measured by the `serve` bench's
/// pipelined sweep).
fn serve_connection(service: &Service, stream: &TcpStream) -> bool {
    let mut writer = BufWriter::with_capacity(64 * 1024, stream);
    let mut lines = LineReader::new(stream);
    let mut conn = service.new_conn();
    let mut started_shutdown = false;
    'conn: loop {
        // Block for the first line of the next burst.
        let mut next = match lines.next_line() {
            Ok(Some(line)) => Some(line),
            Ok(None) => break 'conn,
            Err(LineError::TooLong) => {
                let err = ProtocolError::new(
                    ErrorCode::TooLarge,
                    format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                );
                let _ = writer.write_all(crate::protocol::Response::Err(err).to_line().as_bytes());
                let _ = writer.write_all(b"\n");
                break 'conn;
            }
            Err(LineError::TimedOut) => {
                // Deadline eviction: close without a response — the write
                // side may be equally wedged, and the count is what the
                // operator watches.
                service
                    .stats()
                    .timed_out_connections
                    .fetch_add(1, Ordering::Relaxed);
                return false;
            }
            Err(LineError::Io) => return false,
        };
        while let Some(line) = next {
            let running = !service.shutdown_requested();
            let response = service.handle_line_on(&line, &mut conn);
            started_shutdown = running && service.shutdown_requested();
            if writer
                .write_all(response.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .is_err()
            {
                return started_shutdown;
            }
            // Draining: once shutdown is requested, answer the request in
            // flight and close — don't hold a worker for a client that can
            // keep the socket open indefinitely.
            if service.shutdown_requested() {
                break 'conn;
            }
            next = lines.buffered_line();
        }
        if writer.flush().is_err() {
            return false;
        }
    }
    let _ = writer.flush();
    started_shutdown
}

enum LineError {
    TooLong,
    TimedOut,
    Io,
}

/// Incremental newline framer with a hard cap on buffered bytes.  We roll
/// our own instead of `BufRead::read_line` because the latter happily grows
/// its buffer without bound on a malicious unterminated line.
struct LineReader<R> {
    inner: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    pending: Vec<u8>,
}

impl<R: Read> LineReader<R> {
    fn new(inner: R) -> Self {
        LineReader {
            inner,
            buf: vec![0; 8 * 1024],
            start: 0,
            end: 0,
            pending: Vec::new(),
        }
    }

    /// A complete line already sitting in the buffer, if any — never touches
    /// the underlying stream.  This is what lets the connection loop answer
    /// a whole pipelined burst before flushing once.
    fn buffered_line(&mut self) -> Option<String> {
        let pos = self.buf[self.start..self.end]
            .iter()
            .position(|&b| b == b'\n')?;
        let mut line = std::mem::take(&mut self.pending);
        line.extend_from_slice(&self.buf[self.start..self.start + pos]);
        self.start += pos + 1;
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        Some(String::from_utf8_lossy(&line).into_owned())
    }

    /// The next complete line (without the terminator), `None` on clean EOF.
    fn next_line(&mut self) -> Result<Option<String>, LineError> {
        loop {
            // Scan what we have buffered for a newline.
            if let Some(line) = self.buffered_line() {
                return Ok(Some(line));
            }
            // No newline buffered: stash the fragment and refill.
            self.pending
                .extend_from_slice(&self.buf[self.start..self.end]);
            self.start = 0;
            self.end = 0;
            if self.pending.len() > MAX_LINE_BYTES {
                return Err(LineError::TooLong);
            }
            match self.inner.read(&mut self.buf) {
                Ok(0) => {
                    if self.pending.is_empty() {
                        return Ok(None);
                    }
                    // Final unterminated line.
                    let line = std::mem::take(&mut self.pending);
                    return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
                }
                Ok(n) => self.end = n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // With a read deadline set, both flavours the platform may
                // report mean the same thing: the peer dribbled too slowly.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(LineError::TimedOut)
                }
                Err(_) => return Err(LineError::Io),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_reader_frames_and_caps() {
        let input = b"PING\r\nSTATS\nlast-without-newline".to_vec();
        let mut reader = LineReader::new(&input[..]);
        assert_eq!(reader.next_line().ok().flatten().as_deref(), Some("PING"));
        assert_eq!(reader.next_line().ok().flatten().as_deref(), Some("STATS"));
        assert_eq!(
            reader.next_line().ok().flatten().as_deref(),
            Some("last-without-newline")
        );
        assert!(reader.next_line().ok().flatten().is_none());

        let oversized = vec![b'x'; MAX_LINE_BYTES + 16];
        let mut reader = LineReader::new(&oversized[..]);
        assert!(matches!(reader.next_line(), Err(LineError::TooLong)));
    }

    #[test]
    fn buffered_line_drains_a_burst_without_reading() {
        let input = b"PING\nPING\nPI".to_vec();
        let mut reader = LineReader::new(&input[..]);
        // The blocking read pulls the whole burst into the buffer…
        assert_eq!(reader.next_line().ok().flatten().as_deref(), Some("PING"));
        // …and the second complete line is available without another read.
        assert_eq!(reader.buffered_line().as_deref(), Some("PING"));
        // The trailing fragment is not a complete line.
        assert_eq!(reader.buffered_line(), None);
        // The fragment is still delivered by the next blocking read (EOF).
        assert_eq!(reader.next_line().ok().flatten().as_deref(), Some("PI"));
    }

    #[test]
    fn pipelined_bursts_answer_in_order_over_tcp() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let handle = server.spawn();

        let mut stream = TcpStream::connect(addr).unwrap();
        // One write carrying a whole burst; responses must come back in
        // request order, one line each.
        let burst =
            "PING\nCREATE p 2 3.8 0 0 1 0 0 1\nEDIT p INSERT 2 2\nORIENT p\nQUERY p\nPING\n";
        stream.write_all(burst.as_bytes()).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut all = String::new();
        stream.read_to_string(&mut all).unwrap();
        let lines: Vec<&str> = all.lines().collect();
        assert_eq!(lines.len(), 6, "{all:?}");
        assert_eq!(lines[0], "OK pong");
        assert!(lines[1].starts_with("OK created p n=3"), "{}", lines[1]);
        assert_eq!(lines[2], "OK edit p id=3 pending=1");
        assert!(lines[3].starts_with("OK orient p n=4"), "{}", lines[3]);
        assert!(lines[4].starts_with("OK query p n=4"), "{}", lines[4]);
        assert_eq!(lines[5], "OK pong");
        handle.stop().unwrap();
    }
}
