//! A deliberately minimal HTTP/1.1 subset over `std::net` — just
//! enough protocol for `comet-serve`'s endpoints: request line +
//! headers + `Content-Length` bodies in, fixed-status responses with
//! JSON or text bodies out, sequential keep-alive (no pipelining, no
//! chunked encoding, no TLS).
//!
//! Parsing is **incremental**: [`RequestParser`] consumes whatever
//! bytes the socket has ready — a byte at a time under a slow-loris
//! sender, a full pipelined request in one readiness event — and
//! yields a [`Request`] only when one is complete. The epoll front end
//! ([`crate::event`]) feeds it from nonblocking reads; the blocking
//! [`read_request`] used by tests and simple clients is a thin driver
//! over the same parser, so both paths share one grammar and one set
//! of hardening rules.
//!
//! Hardening over feature-completeness: request lines, header blocks,
//! and bodies all have hard size caps (oversized input is a typed
//! [`HttpError::TooLarge`], answered with 431/413 and a close, never a
//! torn socket), a truncated body is a clean 400, and a request that
//! arrives byte-by-byte (slow loris) is cut off by a wall-clock budget
//! that starts at its first byte and surfaces as [`HttpError::Timeout`]
//! → 408. Idle keep-alive connections that send nothing still close
//! silently, as clients expect.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Longest accepted request line or header line, bytes.
const MAX_LINE: usize = 8 * 1024;
/// Most accepted header lines per request.
const MAX_HEADERS: usize = 64;
/// Largest accepted request body, bytes (basic blocks are tiny; 1 MiB
/// is already generous).
pub const MAX_BODY: usize = 1024 * 1024;

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before sending a request line
    /// (normal end of a keep-alive session).
    Closed,
    /// Socket-level failure, or a timeout before any request byte
    /// arrived (idle keep-alive reclaim — closed silently).
    Io(std::io::Error),
    /// The bytes on the wire are not the HTTP subset we accept.
    Malformed(&'static str),
    /// The peer started a request but did not finish it within the
    /// read budget (slow loris / stalled sender). Answered with 408.
    Timeout,
    /// A size cap was exceeded; `status` is 431 (request line /
    /// headers) or 413 (body).
    TooLarge {
        /// The HTTP status to answer with (413 or 431).
        status: u16,
        /// Which cap was hit.
        reason: &'static str,
    },
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

/// Whether an I/O error is a read-timeout expiry (both kinds occur
/// depending on platform).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method, e.g. `GET`.
    pub method: String,
    /// Request target as sent (no query-string splitting; the API has
    /// none).
    pub path: String,
    /// Body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// `Connection: close` was requested.
    pub close: bool,
    /// Parsed `x-comet-deadline-ms` header, when present and numeric.
    pub deadline_ms: Option<u64>,
    /// When the parser completed the request: the origin every
    /// request deadline is measured from, so time spent queued for a
    /// worker counts against the budget.
    pub received: Instant,
}

/// Where the parser is inside the current request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParseState {
    /// Waiting for (or inside) the request line.
    RequestLine,
    /// Between the request line and the blank line.
    Headers,
    /// Reading `Content-Length` body bytes.
    Body,
}

/// Incremental request parser: push bytes in as they arrive, poll
/// complete requests out. One per connection; survives across
/// keep-alive requests (leftover pipelined bytes stay buffered and
/// parse on the next poll).
#[derive(Debug)]
pub struct RequestParser {
    /// Unconsumed input bytes.
    buf: Vec<u8>,
    /// How far `buf` has been scanned for a newline (avoids rescans
    /// under byte-at-a-time senders).
    scan: usize,
    state: ParseState,
    // Per-request accumulators.
    method: String,
    path: String,
    close: bool,
    deadline_ms: Option<u64>,
    content_length: usize,
    headers_seen: usize,
    http10: bool,
}

impl Default for RequestParser {
    fn default() -> RequestParser {
        RequestParser::new()
    }
}

impl RequestParser {
    /// A fresh parser, ready for the first request.
    pub fn new() -> RequestParser {
        RequestParser {
            buf: Vec::new(),
            scan: 0,
            state: ParseState::RequestLine,
            method: String::new(),
            path: String::new(),
            close: false,
            deadline_ms: None,
            content_length: 0,
            headers_seen: 0,
            http10: false,
        }
    }

    /// Buffer freshly read socket bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether any byte of an unfinished request has arrived — the
    /// line between "idle keep-alive, close silently" and "started a
    /// request, answer 408 on expiry".
    pub fn started(&self) -> bool {
        !self.buf.is_empty() || self.state != ParseState::RequestLine
    }

    /// What a peer EOF means in the current state: a clean
    /// [`HttpError::Closed`] between requests, a malformed-request
    /// error mid-request.
    pub fn eof_error(&self) -> HttpError {
        if !self.started() {
            return HttpError::Closed;
        }
        match self.state {
            ParseState::Body => HttpError::Malformed("truncated body"),
            _ => HttpError::Malformed("eof inside request"),
        }
    }

    /// Extract the next complete line from `buf`, stripped of its
    /// CR/LF tail. `Ok(None)` means more bytes are needed.
    fn next_line(&mut self) -> Result<Option<String>, HttpError> {
        match self.buf[self.scan..].iter().position(|&b| b == b'\n') {
            Some(offset) => {
                let end = self.scan + offset + 1;
                if end > MAX_LINE {
                    return Err(HttpError::TooLarge { status: 431, reason: "line too long" });
                }
                let mut line: Vec<u8> = self.buf.drain(..end).collect();
                self.scan = 0;
                while matches!(line.last(), Some(b'\n') | Some(b'\r')) {
                    line.pop();
                }
                String::from_utf8(line).map(Some).map_err(|_| HttpError::Malformed("non-utf8 line"))
            }
            None => {
                self.scan = self.buf.len();
                if self.scan > MAX_LINE {
                    return Err(HttpError::TooLarge { status: 431, reason: "line too long" });
                }
                Ok(None)
            }
        }
    }

    /// Parse as far as the buffered bytes allow. `Ok(None)` means a
    /// request is still incomplete; `Ok(Some(_))` hands a finished
    /// request out and leaves any pipelined remainder buffered. Errors
    /// are terminal for the connection.
    pub fn poll(&mut self) -> Result<Option<Request>, HttpError> {
        loop {
            match self.state {
                ParseState::RequestLine => {
                    let Some(line) = self.next_line()? else { return Ok(None) };
                    let mut parts = line.split_whitespace();
                    self.method =
                        parts.next().ok_or(HttpError::Malformed("empty request line"))?.to_string();
                    self.path = parts
                        .next()
                        .ok_or(HttpError::Malformed("missing request target"))?
                        .to_string();
                    let version = parts.next().ok_or(HttpError::Malformed("missing version"))?;
                    if !version.starts_with("HTTP/1.") {
                        return Err(HttpError::Malformed("unsupported protocol version"));
                    }
                    self.http10 = version == "HTTP/1.0";
                    self.close = self.http10;
                    self.state = ParseState::Headers;
                }
                ParseState::Headers => {
                    if self.headers_seen >= MAX_HEADERS {
                        return Err(HttpError::TooLarge {
                            status: 431,
                            reason: "too many headers",
                        });
                    }
                    let Some(line) = self.next_line()? else { return Ok(None) };
                    if line.is_empty() {
                        self.state = ParseState::Body;
                        continue;
                    }
                    self.headers_seen += 1;
                    let Some((name, value)) = line.split_once(':') else {
                        return Err(HttpError::Malformed("header without colon"));
                    };
                    let value = value.trim();
                    if name.eq_ignore_ascii_case("content-length") {
                        self.content_length = value
                            .parse()
                            .map_err(|_| HttpError::Malformed("bad content-length"))?;
                        if self.content_length > MAX_BODY {
                            return Err(HttpError::TooLarge {
                                status: 413,
                                reason: "body too large",
                            });
                        }
                    } else if name.eq_ignore_ascii_case("connection") {
                        self.close = value.eq_ignore_ascii_case("close");
                    } else if name.eq_ignore_ascii_case("x-comet-deadline-ms") {
                        self.deadline_ms = value.parse().ok();
                    }
                }
                ParseState::Body => {
                    if self.buf.len() < self.content_length {
                        self.scan = self.buf.len();
                        return Ok(None);
                    }
                    let body: Vec<u8> = self.buf.drain(..self.content_length).collect();
                    self.scan = 0;
                    let request = Request {
                        method: std::mem::take(&mut self.method),
                        path: std::mem::take(&mut self.path),
                        body,
                        close: self.close,
                        deadline_ms: self.deadline_ms.take(),
                        received: Instant::now(),
                    };
                    // Reset for the next keep-alive request; leftover
                    // bytes (an eager pipeliner) stay buffered.
                    self.state = ParseState::RequestLine;
                    self.close = false;
                    self.http10 = false;
                    self.content_length = 0;
                    self.headers_seen = 0;
                    return Ok(Some(request));
                }
            }
        }
    }
}

/// Tracks the wall-clock budget for reading one request. Armed by the
/// first byte (so idle keep-alive waits are not billed) and consulted
/// between reads; a peer dribbling bytes cannot hold a worker past
/// `budget` plus one socket read-timeout.
struct ReadBudget {
    deadline: Option<Instant>,
    budget: Duration,
}

impl ReadBudget {
    fn new(budget: Duration) -> ReadBudget {
        ReadBudget { deadline: None, budget }
    }

    /// First request byte seen: start the clock (once).
    fn arm(&mut self) {
        if self.deadline.is_none() && !self.budget.is_zero() {
            self.deadline = Some(Instant::now() + self.budget);
        }
    }

    fn armed(&self) -> bool {
        self.deadline.is_some()
    }

    fn check(&self) -> Result<(), HttpError> {
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => Err(HttpError::Timeout),
            _ => Ok(()),
        }
    }
}

/// Read and parse one request from a buffered connection — the
/// blocking driver over [`RequestParser`], used by tests and simple
/// clients (the serving path feeds the parser from the epoll loop
/// instead). Blocks until a full request arrives, the peer closes, the
/// stream's read timeout fires, or — once the first byte has arrived —
/// `read_budget` is exhausted (`Duration::ZERO` disables the budget).
pub fn read_request(
    reader: &mut BufReader<&TcpStream>,
    read_budget: Duration,
) -> Result<Request, HttpError> {
    let mut parser = RequestParser::new();
    let mut budget = ReadBudget::new(read_budget);
    loop {
        if let Some(request) = parser.poll()? {
            return Ok(request);
        }
        budget.check()?;
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            // A socket read-timeout mid-request is the same stalled
            // sender the budget exists for; before any byte it is just
            // an idle keep-alive connection.
            Err(e) if is_timeout(&e) && (budget.armed() || parser.started()) => {
                return Err(HttpError::Timeout)
            }
            Err(e) => return Err(HttpError::Io(e)),
        };
        if chunk.is_empty() {
            return Err(parser.eof_error());
        }
        budget.arm();
        let n = chunk.len();
        parser.push(chunk);
        reader.consume(n);
    }
}

/// Reason phrases for the statuses the service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a complete response. `close` adds `Connection: close` so
/// clients know the server will not read another request.
pub fn write_response(
    stream: &mut (impl Write + ?Sized),
    status: u16,
    content_type: &str,
    body: &[u8],
    close: bool,
) -> std::io::Result<()> {
    let connection = if close { "close" } else { "keep-alive" };
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        reason(status),
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Round-trip a raw request through a real loopback socket.
    fn parse_raw(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(raw).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(&server);
        read_request(&mut reader, Duration::from_secs(5))
    }

    #[test]
    fn parses_post_with_body_and_deadline_header() {
        let req = parse_raw(
            b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nX-Comet-Deadline-Ms: 250\r\nContent-Length: 4\r\n\r\nabcd",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/predict");
        assert_eq!(req.body, b"abcd");
        assert_eq!(req.deadline_ms, Some(250));
        assert!(!req.close);
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse_raw(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
        assert!(req.close);
    }

    #[test]
    fn clean_eof_is_closed_not_malformed() {
        assert!(matches!(parse_raw(b""), Err(HttpError::Closed)));
    }

    #[test]
    fn junk_is_malformed() {
        assert!(matches!(parse_raw(b"NOT HTTP\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(
            parse_raw(b"POST / HTTP/1.1\r\nContent-Length: zebra\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_bodies_are_rejected_before_reading_them() {
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(matches!(parse_raw(raw.as_bytes()), Err(HttpError::TooLarge { status: 413, .. })));
    }

    #[test]
    fn oversized_request_line_is_431() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(2 * MAX_LINE));
        assert!(matches!(parse_raw(raw.as_bytes()), Err(HttpError::TooLarge { status: 431, .. })));
    }

    #[test]
    fn too_many_headers_is_431() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 1) {
            raw.push_str(&format!("X-Pad-{i}: y\r\n"));
        }
        raw.push_str("\r\n");
        assert!(matches!(parse_raw(raw.as_bytes()), Err(HttpError::TooLarge { status: 431, .. })));
    }

    #[test]
    fn truncated_body_is_malformed_not_io() {
        // Content-Length promises 100 bytes, the peer sends 5 and
        // half-closes: a clean 400, not a torn socket.
        let err = parse_raw(b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\nhello").unwrap_err();
        assert!(
            matches!(err, HttpError::Malformed("truncated body")),
            "expected truncated-body, got {err:?}"
        );
    }

    #[test]
    fn truncated_headers_are_malformed() {
        let err = parse_raw(b"POST / HTTP/1.1\r\nHost: x\r\n").unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "got {err:?}");
    }

    #[test]
    fn stalled_sender_times_out_within_budget() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        // Start a request, then stall (no half-close, no more bytes).
        client.write_all(b"POST / HTTP/1.1\r\nContent-Le").unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_read_timeout(Some(Duration::from_millis(25))).unwrap();
        let mut reader = BufReader::new(&server);
        let start = Instant::now();
        let err = read_request(&mut reader, Duration::from_millis(50)).unwrap_err();
        assert!(matches!(err, HttpError::Timeout), "got {err:?}");
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn response_is_well_formed() {
        let mut out: Vec<u8> = Vec::new();
        write_response(&mut out, 200, "application/json", b"{}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    // ----- incremental-parser edges -------------------------------------

    /// Feed `raw` to a parser in `chunk`-byte slices and return every
    /// request it produces.
    fn parse_in_chunks(raw: &[u8], chunk: usize) -> Result<Vec<Request>, HttpError> {
        let mut parser = RequestParser::new();
        let mut out = Vec::new();
        for piece in raw.chunks(chunk.max(1)) {
            parser.push(piece);
            while let Some(req) = parser.poll()? {
                out.push(req);
            }
        }
        Ok(out)
    }

    #[test]
    fn byte_at_a_time_parses_identically_to_one_shot() {
        let raw = b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world";
        for chunk in [1, 2, 3, 7, raw.len()] {
            let reqs = parse_in_chunks(raw, chunk).unwrap();
            assert_eq!(reqs.len(), 1, "chunk={chunk}");
            assert_eq!(reqs[0].method, "POST");
            assert_eq!(reqs[0].path, "/v1/predict");
            assert_eq!(reqs[0].body, b"hello world");
        }
    }

    #[test]
    fn headers_cut_mid_token_resume_cleanly() {
        let mut parser = RequestParser::new();
        parser.push(b"GET /healthz HTTP/1.1\r\nX-Comet-Dead");
        assert!(parser.poll().unwrap().is_none());
        assert!(parser.started());
        parser.push(b"line-Ms: 75\r\nConnec");
        assert!(parser.poll().unwrap().is_none());
        parser.push(b"tion: close\r\n\r\n");
        let req = parser.poll().unwrap().expect("complete request");
        assert_eq!(req.deadline_ms, Some(75));
        assert!(req.close);
        assert!(!parser.started(), "parser resets between requests");
    }

    #[test]
    fn pipelined_second_request_stays_buffered() {
        let mut parser = RequestParser::new();
        parser.push(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        let first = parser.poll().unwrap().expect("first request");
        assert_eq!(first.path, "/a");
        assert!(parser.started(), "second request is pending");
        let second = parser.poll().unwrap().expect("second request");
        assert_eq!(second.path, "/b");
        assert!(parser.poll().unwrap().is_none());
    }

    #[test]
    fn oversized_line_detected_before_newline_arrives() {
        let mut parser = RequestParser::new();
        // 2×MAX_LINE bytes with no newline at all: the cap must fire
        // without waiting for the terminator.
        let mut err = None;
        for _ in 0..(2 * MAX_LINE / 64) {
            parser.push(&[b'x'; 64]);
            if let Err(e) = parser.poll() {
                err = Some(e);
                break;
            }
        }
        assert!(matches!(err, Some(HttpError::TooLarge { status: 431, .. })), "got {err:?}");
    }

    #[test]
    fn eof_error_tracks_parser_state() {
        let parser = RequestParser::new();
        assert!(matches!(parser.eof_error(), HttpError::Closed));

        let mut parser = RequestParser::new();
        parser.push(b"GET / HT");
        let _ = parser.poll();
        assert!(matches!(parser.eof_error(), HttpError::Malformed("eof inside request")));

        let mut parser = RequestParser::new();
        parser.push(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
        let _ = parser.poll();
        assert!(matches!(parser.eof_error(), HttpError::Malformed("truncated body")));
    }
}
