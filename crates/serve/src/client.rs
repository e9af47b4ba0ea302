//! Clients for the orientd protocol: a socket client for the real server
//! and an in-process client that drives a [`Service`] directly.
//!
//! Both expose the same one-method surface — `request(line) -> Response` —
//! so tests, the bench and the demo example can swap the transport without
//! touching the call sites.

use crate::protocol::{Response, MAX_LINE_BYTES};
use crate::service::{ConnState, Service};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};

/// A blocking line-oriented client over a [`TcpStream`].
pub struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl TcpClient {
    /// Connects to a running server.  The socket sets `TCP_NODELAY`: every
    /// request is one small write awaiting its answer, exactly the pattern
    /// Nagle's algorithm would hold back until the server's delayed ACK.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(TcpClient { reader, writer })
    }

    /// Sends one request line and reads the matching response line.  The
    /// line and its `\n` leave in a single write.
    pub fn request(&mut self, line: &str) -> std::io::Result<Response> {
        debug_assert!(!line.contains('\n'), "request lines must be newline-free");
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut response = String::new();
        let n = self
            .reader
            .by_ref()
            .take(MAX_LINE_BYTES as u64 + 2)
            .read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        // The server's serializer produced the line, so a parse failure can
        // only mean a foreign peer; surface it as a structured error.
        Ok(Response::from_line(response.trim_end_matches(['\r', '\n']))
            .unwrap_or_else(Response::Err))
    }
}

/// An in-process client: the same request surface as [`TcpClient`], but the
/// "wire" is a function call into a shared [`Service`].  This is what the
/// concurrency oracle, the robustness suite and the throughput bench use —
/// the full parse → execute → serialize path runs, only the socket is
/// elided.
/// Like a socket, each `LocalClient` carries its own connection state, so
/// an `AUTH` on one client authenticates that client alone.  Clones share
/// the state (they model the same connection).
#[derive(Clone)]
pub struct LocalClient {
    service: Arc<Service>,
    conn: Arc<Mutex<ConnState>>,
}

impl LocalClient {
    /// A client over an existing service.
    pub fn new(service: Arc<Service>) -> Self {
        let conn = Arc::new(Mutex::new(service.new_conn()));
        LocalClient { service, conn }
    }

    /// The service this client drives.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Sends one request line through the full protocol path.
    pub fn request(&self, line: &str) -> Response {
        let mut conn = self.conn.lock().expect("local conn state poisoned");
        Response::from_line(&self.service.handle_line_on(line, &mut conn))
            .unwrap_or_else(Response::Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;

    #[test]
    fn local_and_tcp_clients_agree() {
        let service = Arc::new(Service::new());
        let local = LocalClient::new(Arc::clone(&service));
        assert!(local.request("PING").is_ok());

        let server = Server::bind_with("127.0.0.1:0", service, 2).expect("bind");
        let addr = server.local_addr();
        let handle = server.spawn();

        let mut tcp = TcpClient::connect(addr).expect("connect");
        let pong = tcp.request("PING").expect("round trip");
        assert_eq!(pong.to_line(), "OK pong");
        let err = tcp.request("NOPE").expect("round trip");
        assert!(!err.is_ok());

        handle.stop().expect("clean shutdown");
    }

    #[test]
    fn tcp_round_trips_do_not_stall() {
        // A request split over two writes on a Nagle socket waits for the
        // server's delayed ACK (~40 ms), so this loop would take over 4 s.
        let service = Arc::new(Service::new());
        let server = Server::bind_with("127.0.0.1:0", service, 2).expect("bind");
        let addr = server.local_addr();
        let handle = server.spawn();

        let mut tcp = TcpClient::connect(addr).expect("connect");
        let start = std::time::Instant::now();
        for _ in 0..100 {
            assert!(tcp.request("PING").expect("round trip").is_ok());
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "100 PINGs took {elapsed:?}"
        );

        handle.stop().expect("clean shutdown");
    }
}
