//! The load generator's side of the wire: an `orientd` child process, a
//! line client, and the open-loop driver.
//!
//! The client writes each request line together with its `\n` in one
//! `write` on a `TCP_NODELAY` socket.  `antennae_serve::TcpClient` is not
//! used: it writes the line and the newline separately, and Nagle's
//! algorithm plus the peer's delayed ACK then hold every request for about
//! 40 ms (10⁴ `EDIT INSERT`s plus `ORIENT` took 441 s through it, 1.2 s with
//! one write per line).

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long any single response may take before the run gives up on it.
const RESPONSE_DEADLINE: Duration = Duration::from_secs(60);

/// A running `orientd` child; killed and reaped on drop if still running.
pub struct Orientd {
    child: Child,
    pub addr: SocketAddr,
}

impl Orientd {
    /// Starts `orientd` with two workers on an ephemeral port (durable when
    /// `data_dir` is given) and waits until it has bound.
    pub fn start(binary: &Path, data_dir: Option<&Path>) -> std::io::Result<Orientd> {
        let mut cmd = Command::new(binary);
        cmd.args(["--listen", "127.0.0.1:0", "--print-port", "--threads", "2"]);
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let port: u16 = match line.trim().strip_prefix("PORT ").map(str::parse) {
            Some(Ok(port)) => port,
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(std::io::Error::other(format!(
                    "orientd did not report its port (got {line:?})"
                )));
            }
        };
        Ok(Orientd {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `SHUTDOWN` over `conn` and waits for the process to exit.
    pub fn shutdown(mut self, conn: &mut Conn) -> std::io::Result<()> {
        let reply = conn.request("SHUTDOWN")?;
        if !reply.starts_with("OK") {
            return Err(std::io::Error::other(format!("SHUTDOWN answered {reply}")));
        }
        let status = self.child.wait()?;
        if !status.success() {
            return Err(std::io::Error::other(format!(
                "orientd exited with {status}"
            )));
        }
        Ok(())
    }
}

impl Drop for Orientd {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One connection: one `write` per request line, responses read in order.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    partial: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            stream,
            reader,
            partial: Vec::new(),
        })
    }

    /// Writes `line` and its newline in one call.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.stream.write_all(&buf)
    }

    /// Reads one response line, waiting at most `wait`; `Ok(None)` when the
    /// wait ran out first (a partial line is kept for the next call).
    pub fn recv_within(&mut self, wait: Duration) -> std::io::Result<Option<String>> {
        self.reader
            .get_ref()
            .set_read_timeout(Some(wait.max(Duration::from_micros(50))))?;
        match self.reader.read_until(b'\n', &mut self.partial) {
            Ok(0) => Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "orientd closed the connection",
            )),
            Ok(_) if self.partial.ends_with(b"\n") => {
                let line = String::from_utf8_lossy(&self.partial)
                    .trim_end()
                    .to_string();
                self.partial.clear();
                Ok(Some(line))
            }
            Ok(_) => Ok(None),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Reads one response line, failing after [`RESPONSE_DEADLINE`].
    pub fn recv(&mut self) -> std::io::Result<String> {
        let deadline = Instant::now() + RESPONSE_DEADLINE;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(std::io::Error::new(ErrorKind::TimedOut, "no response"));
            }
            if let Some(line) = self.recv_within(left)? {
                return Ok(line);
            }
        }
    }

    /// One closed-loop round trip.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv()
    }

    /// Sends every line, then reads every response (pipelined).
    pub fn pipeline(&mut self, lines: &[String]) -> std::io::Result<Vec<String>> {
        // Interleave writing and reading in chunks so neither side's socket
        // buffer fills while the other waits.
        let mut out = Vec::with_capacity(lines.len());
        for chunk in lines.chunks(64) {
            for line in chunk {
                self.send(line)?;
            }
            for _ in chunk {
                out.push(self.recv()?);
            }
        }
        Ok(out)
    }
}

/// Polls `addr` until `PING` answers `OK`, returning how long that took from
/// `since`.
pub fn wait_for_ping(addr: SocketAddr, since: Instant) -> std::io::Result<Duration> {
    let deadline = since + Duration::from_secs(170);
    loop {
        if let Ok(mut conn) = Conn::connect(addr) {
            if conn.request("PING").is_ok_and(|r| r == "OK pong") {
                return Ok(since.elapsed());
            }
        }
        if Instant::now() > deadline {
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                "PING never answered",
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One request of an open-loop schedule.
pub struct Planned {
    /// When the request is due, from the start of the load phase.
    pub at: Duration,
    pub line: String,
}

/// What the open-loop driver saw for one request.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Response line (`None` when none arrived).
    pub response: Option<String>,
    /// From the scheduled send time to the response.
    pub latency: Duration,
}

/// Replays `plan` (sorted by `at`) on `conn` as an open loop: each request
/// is written when due whatever is still in flight, and its latency runs
/// from the due time, so a stall is charged to every request it delays.
/// Returns one outcome per request and the lateness of each send.
pub fn open_loop(
    conn: &mut Conn,
    plan: &[Planned],
    start: Instant,
) -> (Vec<Outcome>, Vec<Duration>) {
    let mut outcomes: Vec<Outcome> = plan
        .iter()
        .map(|_| Outcome {
            response: None,
            latency: Duration::ZERO,
        })
        .collect();
    let mut lag = Vec::with_capacity(plan.len());
    let mut inflight: VecDeque<usize> = VecDeque::new();
    let mut next = 0;
    let mut broken = false;
    while !broken && (next < plan.len() || !inflight.is_empty()) {
        let now = Instant::now();
        if next < plan.len() && now >= start + plan[next].at {
            lag.push(now - (start + plan[next].at));
            if conn.send(&plan[next].line).is_err() {
                broken = true;
            }
            inflight.push_back(next);
            next += 1;
            continue;
        }
        let wait = if next < plan.len() {
            start + plan[next].at - now
        } else {
            RESPONSE_DEADLINE
        };
        if inflight.is_empty() {
            std::thread::sleep(wait);
            continue;
        }
        match conn.recv_within(wait) {
            Ok(Some(line)) => {
                let i = inflight.pop_front().expect("a request is in flight");
                outcomes[i] = Outcome {
                    response: Some(line),
                    latency: start.elapsed().saturating_sub(plan[i].at),
                };
            }
            Ok(None) if next >= plan.len() => broken = true,
            Ok(None) => {}
            Err(_) => broken = true,
        }
    }
    (outcomes, lag)
}

/// A scratch directory under the checkout's build directory, emptied first.
pub fn scratch_dir(name: &str) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(".bench_build")
        .join("perfbench")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Copies a directory tree (regular files and directories only).
pub fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}
