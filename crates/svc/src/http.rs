//! A deliberately tiny HTTP/1.1 layer over `std::net` — no external
//! dependencies, enough for a JSON control plane: one request per
//! connection, `Content-Length` bodies, `Connection: close` semantics.
//! The control plane sees a handful of concurrent clients, not thousands,
//! so the server is a blocking accept loop with one thread per connection,
//! at most [`MAX_CONNECTIONS`] of them at once.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on accepted request bodies. A submitted config is a few
/// kilobytes; this is a guard against runaway clients, not a tuning knob.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Upper bound on connections served at once. Each holds a thread for up
/// to the 10 s read timeout, and a submit prices its campaign (a dry run)
/// on that thread; past the bound the accept thread answers `503` itself.
/// A guard against runaway clients, not a tuning knob.
pub const MAX_CONNECTIONS: usize = 64;

/// How long the accept thread spends on a refused connection, in all.
const REFUSE_DRAIN: Duration = Duration::from_millis(200);

/// A parsed request: method, path, raw body.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: Vec<u8>,
}

/// A response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, doc: &obs::json::Value) -> Self {
        Response { status, content_type: "application/json", body: doc.compact().into_bytes() }
    }

    /// A plain-text response (Prometheus exposition uses this).
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response { status, content_type: "text/plain", body: body.into().into_bytes() }
    }
}

/// The request handler: pure function of the request, shared across
/// connection threads.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// A running HTTP server. Dropping (or calling [`HttpServer::stop`])
/// stops the accept loop; in-flight connection threads finish on their
/// own.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving `handler` in a background accept loop.
    pub fn bind(addr: &str, handler: Handler) -> Result<Self, String> {
        Self::bind_limited(addr, handler, MAX_CONNECTIONS)
    }

    /// [`Self::bind`] with `max_connections` in place of
    /// [`MAX_CONNECTIONS`].
    pub(crate) fn bind_limited(
        addr: &str,
        handler: Handler,
        max_connections: usize,
    ) -> Result<Self, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let loop_stop = Arc::clone(&stop);
        let open = Arc::new(AtomicUsize::new(0));
        let accept_thread = std::thread::Builder::new()
            .name("repex-svc-http".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if loop_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    if open.fetch_add(1, Ordering::SeqCst) >= max_connections {
                        open.fetch_sub(1, Ordering::SeqCst);
                        refuse(stream);
                        continue;
                    }
                    let slot = Slot(Arc::clone(&open));
                    let handler = Arc::clone(&handler);
                    let _ = std::thread::Builder::new().name("repex-svc-conn".into()).spawn(
                        move || {
                            let _slot = slot;
                            handle_connection(stream, &handler);
                        },
                    );
                }
            })
            .map_err(|e| format!("spawn accept thread: {e}"))?;
        Ok(HttpServer { addr: local, stop, accept_thread: Some(accept_thread) })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept loop.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the listener so the blocking accept wakes up and sees the
        // stop flag; an empty connection is handled as a no-op.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shutdown();
        }
    }
}

/// One connection's share of the [`MAX_CONNECTIONS`] budget, given back
/// when its thread ends (or when the thread could not be started).
struct Slot(Arc<AtomicUsize>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Answer `503` on the accept thread, without a thread of its own. The
/// request is then drained for at most [`REFUSE_DRAIN`] in all, so that
/// closing the socket does not reset the response away before the client
/// reads it, and a client that trickles bytes cannot hold the listener.
fn refuse(mut stream: TcpStream) {
    let deadline = Instant::now() + REFUSE_DRAIN;
    let resp = Response::json(503, &obs::obj! { "error" => "too many open connections" });
    if stream.set_write_timeout(Some(REFUSE_DRAIN)).is_err()
        || write_response(&mut stream, &resp).is_err()
    {
        return;
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 4096];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        if matches!(stream.read(&mut sink), Ok(0) | Err(_)) {
            return;
        }
    }
}

fn handle_connection(stream: TcpStream, handler: &Handler) {
    if stream.set_read_timeout(Some(Duration::from_secs(10))).is_err()
        || stream.set_write_timeout(Some(Duration::from_secs(10))).is_err()
    {
        return;
    }
    let mut reader = BufReader::new(stream);
    let resp = match read_request(&mut reader) {
        Ok(Some(req)) => handler(&req),
        Ok(None) => return, // empty connection (e.g. the shutdown poke)
        Err(msg) => Response::json(400, &obs::obj! { "error" => msg }),
    };
    let mut stream = reader.into_inner();
    let _ = write_response(&mut stream, &resp);
}

fn read_request<R: BufRead>(r: &mut R) -> Result<Option<Request>, String> {
    let mut line = String::new();
    r.read_line(&mut line).map_err(|e| format!("read request line: {e}"))?;
    if line.trim().is_empty() {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_ascii_uppercase();
    let path = parts.next().unwrap_or_default().to_string();
    if method.is_empty() || !path.starts_with('/') {
        return Err(format!("malformed request line {line:?}"));
    }
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        r.read_line(&mut header).map_err(|e| format!("read header: {e}"))?;
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad content-length {:?}", value.trim()))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(format!(
            "request body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
        ));
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body).map_err(|e| format!("read body: {e}"))?;
    Ok(Some(Request { method, path, body }))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

fn write_response(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&resp.body)?;
    stream.flush()
}

/// Minimal blocking client: one request, returns `(status, body)`. The
/// CLI verbs (`repex submit/status/cancel/results/metrics`) and the
/// integration tests drive the service through this.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> Result<(u16, Vec<u8>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let body = body.unwrap_or(&[]);
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut stream = stream;
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .and_then(|()| stream.flush())
        .map_err(|e| format!("send request: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).map_err(|e| format!("read status line: {e}"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
    let mut content_length: Option<usize> = None;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).map_err(|e| format!("read header: {e}"))?;
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            body.resize(n, 0);
            reader.read_exact(&mut body).map_err(|e| format!("read body: {e}"))?;
        }
        None => {
            reader.read_to_end(&mut body).map_err(|e| format!("read body: {e}"))?;
        }
    }
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> HttpServer {
        let handler: Handler = Arc::new(|req: &Request| {
            if req.path == "/echo" {
                let mut body = req.method.clone().into_bytes();
                body.push(b' ');
                body.extend_from_slice(&req.body);
                Response { status: 200, content_type: "text/plain", body }
            } else {
                Response::json(404, &obs::obj! { "error" => "no such route" })
            }
        });
        HttpServer::bind("127.0.0.1:0", handler).unwrap()
    }

    #[test]
    fn round_trip_with_body() {
        let server = echo_server();
        let addr = server.addr().to_string();
        let (status, body) = request(&addr, "POST", "/echo", Some(b"hello")).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"POST hello");
        // Several sequential clients — every connection is independent.
        for _ in 0..3 {
            let (status, _) = request(&addr, "GET", "/echo", None).unwrap();
            assert_eq!(status, 200);
        }
        server.stop();
    }

    #[test]
    fn unknown_route_is_404_json() {
        let server = echo_server();
        let addr = server.addr().to_string();
        let (status, body) = request(&addr, "GET", "/nope", None).unwrap();
        assert_eq!(status, 404);
        let doc = obs::json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(doc["error"], "no such route");
        server.stop();
    }

    #[test]
    fn malformed_request_line_is_400() {
        let server = echo_server();
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut out = String::new();
        BufReader::new(stream).read_line(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        server.stop();
    }

    #[test]
    fn past_the_connection_bound_the_accept_thread_answers_503() {
        let handler: Handler = Arc::new(|_: &Request| Response::text(200, "ok"));
        let server = HttpServer::bind_limited("127.0.0.1:0", handler, 1).unwrap();
        let addr = server.addr().to_string();
        // Holds the one slot: its thread waits for a request that never comes.
        let idle = TcpStream::connect(&addr).unwrap();
        let (status, body) = request(&addr, "GET", "/", None).unwrap();
        assert_eq!(status, 503, "{}", String::from_utf8_lossy(&body));
        drop(idle);
        // The slot comes back once the idle connection's thread sees EOF.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while request(&addr, "GET", "/", None).unwrap().0 != 200 {
            assert!(std::time::Instant::now() < deadline, "the slot never came back");
            std::thread::sleep(Duration::from_millis(20));
        }
        server.stop();
    }

    #[test]
    fn a_refused_client_that_trickles_bytes_does_not_hold_the_listener() {
        let handler: Handler = Arc::new(|_: &Request| Response::text(200, "ok"));
        let server = HttpServer::bind_limited("127.0.0.1:0", handler, 1).unwrap();
        let addr = server.addr().to_string();
        let idle = TcpStream::connect(&addr).unwrap();
        // Refused while `idle` holds the slot; it then sends a byte every
        // 50 ms for up to 6 s, each read well inside a per-read timeout.
        let mut trickler = TcpStream::connect(&addr).unwrap();
        let mut status = String::new();
        BufReader::new(&trickler).read_line(&mut status).unwrap();
        assert!(status.starts_with("HTTP/1.1 503"), "{status}");
        let done = Arc::new(AtomicBool::new(false));
        let trickling = Arc::clone(&done);
        let trickle = std::thread::spawn(move || {
            for _ in 0..120 {
                if trickling.load(Ordering::SeqCst) || trickler.write_all(b"x").is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        drop(idle);
        let start = std::time::Instant::now();
        while request(&addr, "GET", "/", None).unwrap().0 != 200 {
            std::thread::sleep(Duration::from_millis(20));
        }
        let waited = start.elapsed();
        done.store(true, Ordering::SeqCst);
        trickle.join().unwrap();
        assert!(waited < Duration::from_secs(3), "served only after {waited:?}");
        server.stop();
    }

    #[test]
    fn concurrent_clients_are_served() {
        let server = echo_server();
        let addr = server.addr().to_string();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let payload = format!("client-{i}");
                    let (status, body) =
                        request(&addr, "POST", "/echo", Some(payload.as_bytes())).unwrap();
                    assert_eq!(status, 200);
                    assert_eq!(body, format!("POST {payload}").into_bytes());
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        server.stop();
    }
}
