//! Live-socket behavior of the readiness reactor: event-driven
//! shutdown latency (no polling tick), timer-wheel keep-alive reaping
//! that spares active mid-body uploads, and pipelined requests over
//! one connection.

use kgae_service::manager::DatasetRegistry;
use kgae_service::{Server, ServerHandle, SessionManager, SnapshotStore};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Upper bound on a shutdown drain: the waker delivers the flag at
/// once, so a drain has no polling tick to wait out.
const DRAIN_BOUND: Duration = Duration::from_millis(500);

fn temp_store(tag: &str) -> SnapshotStore {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("kgae-reactor-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    SnapshotStore::open(dir).unwrap()
}

/// Shuts the server down when dropped, so a panicking test body cannot
/// leave `std::thread::scope` joining a server that never exits.
struct ShutdownGuard(ServerHandle);

impl Drop for ShutdownGuard {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Boots a server (optionally with a short idle timeout) and runs `f`;
/// returns how long the shutdown-to-drained interval took.
fn with_server(tag: &str, idle_timeout: Option<Duration>, f: impl FnOnce(SocketAddr)) -> Duration {
    let registry = DatasetRegistry::standard();
    let manager = SessionManager::new(&registry, temp_store(tag), 4);
    let mut server = Server::bind("127.0.0.1:0", 2).unwrap();
    if let Some(timeout) = idle_timeout {
        server = server.with_idle_timeout(timeout);
    }
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    let shutdown_latency = std::thread::scope(|scope| {
        let guard = ShutdownGuard(handle);
        let server_thread = scope.spawn(|| server.run(&manager));
        f(addr);
        let begin = Instant::now();
        drop(guard);
        server_thread.join().unwrap();
        begin.elapsed()
    });
    let _ = std::fs::remove_dir_all(manager.store().dir());
    shutdown_latency
}

/// A client-side HTTP/1.1 response reader with a carry buffer, so
/// pipelined responses arriving in one TCP segment are split correctly
/// instead of the over-read bytes being discarded.
struct RespReader {
    conn: TcpStream,
    buf: Vec<u8>,
}

impl RespReader {
    fn new(conn: TcpStream) -> Self {
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Self {
            conn,
            buf: Vec::new(),
        }
    }

    /// Reads one complete response (headers + Content-Length body);
    /// `None` on a clean server-side close between responses.
    fn next_response(&mut self) -> Option<Vec<u8>> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(header_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let headers = String::from_utf8_lossy(&self.buf[..header_end]).to_ascii_lowercase();
                let content_length: usize = headers
                    .lines()
                    .find_map(|l| l.strip_prefix("content-length:"))
                    .map_or(0, |v| v.trim().parse().unwrap());
                let total = header_end + 4 + content_length;
                while self.buf.len() < total {
                    let n = self.conn.read(&mut chunk).unwrap();
                    assert!(n > 0, "connection died mid-response");
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                let rest = self.buf.split_off(total);
                return Some(std::mem::replace(&mut self.buf, rest));
            }
            let n = self.conn.read(&mut chunk).unwrap();
            if n == 0 {
                assert!(self.buf.is_empty(), "connection died mid-response");
                return None;
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Blocks until the server closes the connection; panics if bytes
    /// arrive instead.
    fn expect_close(&mut self) {
        assert!(self.buf.is_empty(), "unconsumed response bytes");
        let mut sink = [0u8; 64];
        let n = self.conn.read(&mut sink).unwrap();
        assert_eq!(n, 0, "expected a server-side close, got bytes");
    }
}

fn health_check(addr: SocketAddr) -> RespReader {
    let conn = TcpStream::connect(addr).unwrap();
    let mut reader = RespReader::new(conn);
    reader
        .conn
        .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
        .unwrap();
    reader
        .next_response()
        .unwrap_or_else(|| panic!("no health response"));
    reader
}

#[test]
fn no_session_drain_completes_within_the_drain_bound() {
    // Several idle keep-alive connections are held open at shutdown
    // time: the reactor's waker byte makes the whole drain — flag
    // observed, idle connections closed, workers joined, store swept —
    // effectively instant.
    let latency = with_server("shutdown-latency", None, |addr| {
        drop(health_check(addr));
    });
    assert!(
        latency < DRAIN_BOUND,
        "no-session drain took {latency:?}; the reactor must react to the \
         waker instantly, not poll for the flag"
    );
}

#[test]
fn held_open_connections_do_not_delay_shutdown() {
    // Keep idle connections alive *across* the shutdown call: the
    // reactor must close them server-side rather than wait for them.
    let registry = DatasetRegistry::standard();
    let manager = SessionManager::new(&registry, temp_store("shutdown-held"), 4);
    let server = Server::bind("127.0.0.1:0", 2).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle().unwrap();
    std::thread::scope(|scope| {
        let guard = ShutdownGuard(handle);
        let server_thread = scope.spawn(|| server.run(&manager));
        let mut held: Vec<RespReader> = (0..4).map(|_| health_check(addr)).collect();
        let begin = Instant::now();
        drop(guard);
        server_thread.join().unwrap();
        let latency = begin.elapsed();
        assert!(
            latency < DRAIN_BOUND,
            "drain with held connections took {latency:?}"
        );
        // And the clients observe the close.
        for conn in &mut held {
            conn.expect_close();
        }
    });
    let _ = std::fs::remove_dir_all(manager.store().dir());
}

#[test]
fn idle_connection_is_reaped_but_active_upload_is_not() {
    let idle_timeout = Duration::from_millis(300);
    with_server("reaper", Some(idle_timeout), |addr| {
        // An idle keep-alive connection: the timer wheel must close it
        // server-side once it sits past the deadline.
        let mut idle = health_check(addr);
        let begin = Instant::now();
        idle.expect_close();
        let reaped_after = begin.elapsed();
        assert!(
            reaped_after >= idle_timeout - Duration::from_millis(60),
            "reaped too early: {reaped_after:?} (timeout {idle_timeout:?})"
        );
        assert!(
            reaped_after < Duration::from_secs(3),
            "reaping took {reaped_after:?}; the timer wheel is not firing"
        );

        // An *active* mid-body upload trickling bytes slower than the
        // request needs but faster than the deadline: every byte
        // refreshes the activity clock, so the connection survives
        // several multiples of the idle timeout and gets its response.
        let body = b"trickled-upload-payload!";
        let mut active = RespReader::new(TcpStream::connect(addr).unwrap());
        active
            .conn
            .write_all(
                format!(
                    "GET /healthz HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap();
        let begin = Instant::now();
        for piece in body.chunks(2) {
            std::thread::sleep(Duration::from_millis(100));
            active.conn.write_all(piece).unwrap();
        }
        let streamed_for = begin.elapsed();
        assert!(
            streamed_for >= idle_timeout * 3,
            "upload finished too fast ({streamed_for:?}) to prove anything"
        );
        let response = active
            .next_response()
            .unwrap_or_else(|| panic!("active upload was reaped after {streamed_for:?}"));
        assert!(
            response.starts_with(b"HTTP/1.1 200"),
            "unexpected response: {}",
            String::from_utf8_lossy(&response[..40.min(response.len())])
        );
    });
}

#[test]
fn pipelined_requests_get_all_responses_in_order() {
    with_server("pipeline", None, |addr| {
        let mut reader = RespReader::new(TcpStream::connect(addr).unwrap());
        // Three back-to-back requests in one write, the last one
        // closing: the reactor must answer all three, in order, on the
        // one connection.
        reader
            .conn
            .write_all(
                b"GET /healthz HTTP/1.1\r\n\r\n\
                  GET /v1/datasets HTTP/1.1\r\n\r\n\
                  GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            )
            .unwrap();
        let first = reader.next_response().expect("first response");
        assert!(first.starts_with(b"HTTP/1.1 200"));
        assert!(first.windows(9).any(|w| w == b"\"ok\":true"));
        let second = reader.next_response().expect("second response");
        assert!(second.windows(10).any(|w| w == b"\"datasets\""));
        let third = reader.next_response().expect("third response");
        assert!(third.starts_with(b"HTTP/1.1 200"));
        // And after the Connection: close response, the server closes.
        reader.expect_close();
    });
}
