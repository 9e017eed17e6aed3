//! The load client: keep-alive HTTP/1.1 connections, `comet-serve`
//! child processes with sub-millisecond readiness timing, `/metrics`
//! scrapes, and the trivial responder that gives the loopback floor.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One closed-loop keep-alive connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn { reader: BufReader::new(stream) })
    }

    /// Send one request and read its whole response: `(status, body)`.
    pub fn call(&mut self, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.reader.get_mut().write_all(request)?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut content_length = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!("POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}", body.len())
        .into_bytes()
}

/// A `comet-serve` child process. Dropping it kills and reaps the
/// process; [`ServerChild::stop`] drains it gracefully instead.
pub struct ServerChild {
    child: Child,
    pub addr: SocketAddr,
    stderr_drain: Option<JoinHandle<()>>,
}

impl ServerChild {
    /// Spawn `bin` with `args` on a free loopback port and wait for the
    /// first 200 from `/readyz`. Returns the child and the time from
    /// spawn to that answer.
    pub fn spawn_ready(bin: &Path, args: &[String]) -> io::Result<(ServerChild, f64)> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--supervised"])
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        // The server names its bound address on stderr once it accepts.
        let announced = (|| -> io::Result<SocketAddr> {
            let mut line = String::new();
            loop {
                line.clear();
                if stderr.read_line(&mut line)? == 0 {
                    return Err(io::Error::other("comet-serve exited before listening"));
                }
                if let Some(rest) = line.split("listening on ").nth(1) {
                    let token = rest.split_whitespace().next().unwrap_or_default();
                    return token.parse::<SocketAddr>().map_err(io::Error::other);
                }
            }
        })();
        let addr = match announced {
            Ok(addr) => addr,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let stderr_drain = std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = stderr.read_to_end(&mut sink);
        });
        let mut server = ServerChild { child, addr, stderr_drain: Some(stderr_drain) };
        let readyz = get("/readyz");
        loop {
            if let Ok(mut conn) = Conn::connect(addr) {
                if let Ok((200, _)) = conn.call(&readyz) {
                    break;
                }
            }
            if start.elapsed() > Duration::from_secs(60) {
                server.kill();
                return Err(io::Error::other("comet-serve never became ready"));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        Ok((server, start.elapsed().as_secs_f64()))
    }

    /// Peak resident set (`VmHWM`) of the child, MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Scrape `/metrics` into `series (with labels) -> value`.
    pub fn scrape(&self) -> io::Result<BTreeMap<String, f64>> {
        let (status, body) = Conn::connect(self.addr)?.call(&get("/metrics"))?;
        if status != 200 {
            return Err(io::Error::other(format!("/metrics answered {status}")));
        }
        let text = String::from_utf8_lossy(&body);
        Ok(text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (series, value) = l.rsplit_once(' ')?;
                Some((series.to_string(), value.parse().ok()?))
            })
            .collect())
    }

    /// Graceful drain: the child runs `--supervised`, so closing its
    /// stdin asks it to finish in-flight work and exit.
    pub fn stop(mut self) -> io::Result<()> {
        drop(self.child.stdin.take());
        let status = self.child.wait()?;
        if let Some(drain) = self.stderr_drain.take() {
            let _ = drain.join();
        }
        if !status.success() {
            return Err(io::Error::other(format!("comet-serve exited with {status}")));
        }
        Ok(())
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stderr_drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if self.stderr_drain.is_some() {
            self.kill();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, MiB.
pub fn peak_rss_mb(status_path: &str) -> io::Result<f64> {
    let text = std::fs::read_to_string(status_path)?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM line"))
}

/// Steal jiffies summed over all CPUs, from `/proc/stat`.
pub fn steal_jiffies() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            let cpu = text.lines().next()?.to_string();
            cpu.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Loopback floor: round-trip latencies (µs) of `rounds` `GET /` calls
/// through [`Conn`] against a std-only responder that answers a fixed
/// 200 without parsing beyond the header terminator.
pub fn loopback_floor_us(rounds: usize) -> io::Result<Vec<f64>> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let responder = std::thread::spawn(move || -> io::Result<()> {
        let (mut stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let mut buf = [0u8; 4096];
        let mut pending = Vec::new();
        loop {
            let n = stream.read(&mut buf)?;
            if n == 0 {
                return Ok(());
            }
            pending.extend_from_slice(&buf[..n]);
            while let Some(end) = pending.windows(4).position(|w| w == b"\r\n\r\n") {
                pending.drain(..end + 4);
                stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")?;
            }
        }
    });
    let mut conn = Conn::connect(addr)?;
    let request = get("/");
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        conn.call(&request)?;
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    drop(conn);
    responder.join().map_err(|_| io::Error::other("floor responder panicked"))??;
    Ok(samples)
}
