//! A minimal HTTP/1.1 client and the closed-loop load generator.
//!
//! The server answers one request per connection and closes, so a
//! request is: connect, write, read to EOF. One *operation* is timed
//! from connect to the last byte.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// Sends one request and reads the whole response.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response");
    let (head, body) = text.split_once("\r\n\r\n").ok_or_else(bad)?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    Ok(Reply {
        status,
        body: body.to_owned(),
    })
}

/// One completed request of a load run.
#[derive(Debug, Clone)]
pub struct Sample<R> {
    /// Index into the request list.
    pub index: usize,
    pub latency: Duration,
    pub result: R,
}

/// Clients a closed loop may run: never more than the machine's cores.
#[must_use]
pub fn client_cap(requested: usize) -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    requested.clamp(1, nproc)
}

/// Runs `count` requests with `clients` closed-loop clients (capped by
/// [`client_cap`]): each client sends its next request only after the
/// previous reply arrived, taking indices from a shared counter. `send`
/// performs request `index` and returns what the caller wants kept.
pub fn closed_loop<R: Send>(
    clients: usize,
    count: usize,
    send: impl Fn(usize) -> R + Sync,
) -> Vec<Sample<R>> {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(count));
    std::thread::scope(|s| {
        for _ in 0..client_cap(clients) {
            s.spawn(|| loop {
                // A work-distribution counter: it publishes no other
                // data, so relaxed ordering suffices.
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    break;
                }
                let start = Instant::now();
                let result = send(index);
                let latency = start.elapsed();
                samples
                    .lock()
                    .expect("a client panicked while recording")
                    .push(Sample {
                        index,
                        latency,
                        result,
                    });
            });
        }
    });
    let mut samples = samples.into_inner().expect("a client panicked");
    samples.sort_by_key(|s| s.index);
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicBool;

    /// A server that counts how many connections are open at once; each
    /// handler holds its connection briefly so overlapping clients show.
    #[test]
    fn load_generator_never_exceeds_nproc_connections() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let open = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let samples = std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::scope(|h| {
                    while !stop.load(Ordering::SeqCst) {
                        let Ok((mut conn, _)) = listener.accept() else {
                            std::thread::sleep(Duration::from_millis(1));
                            continue;
                        };
                        conn.set_nonblocking(false).unwrap();
                        let (open, peak) = (&open, &peak);
                        h.spawn(move || {
                            let now = open.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            let mut buf = [0u8; 1024];
                            let _ = conn.read(&mut buf);
                            std::thread::sleep(Duration::from_millis(5));
                            // Decrement before replying: the client may
                            // connect again as soon as it reads EOF.
                            open.fetch_sub(1, Ordering::SeqCst);
                            let _ = conn.write_all(b"HTTP/1.1 200 OK\r\n\r\nok");
                        });
                    }
                });
            });
            let samples = closed_loop(64, 40, |_| request(addr, "GET", "/", "").unwrap());
            stop.store(true, Ordering::SeqCst);
            samples
        });
        assert_eq!(samples.len(), 40);
        assert!(samples
            .iter()
            .all(|s| s.result.status == 200 && s.result.body == "ok"));
        let nproc = std::thread::available_parallelism().unwrap().get();
        let seen = peak.load(Ordering::SeqCst);
        assert!(
            seen >= 1 && seen <= nproc,
            "{seen} connections open at once, nproc {nproc}"
        );
    }

    #[test]
    fn client_cap_is_between_one_and_nproc() {
        let nproc = std::thread::available_parallelism().unwrap().get();
        assert_eq!(client_cap(0), 1);
        assert_eq!(client_cap(usize::MAX), nproc);
    }
}
