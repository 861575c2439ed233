//! Running `hotwire serve` under the benchmark.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::gen::{signoff_body, Op};
use crate::http::{self, Reply, Sample};
use crate::proc::{self, Reaped};

/// A running server on an ephemeral loopback port. It is killed and
/// reaped by [`Server::stop`], or on drop when a run ends early.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Held open so the server never writes into a closed pipe.
    _stdout: ChildStdout,
    reaped: bool,
}

/// How long a server may take to answer its first `/healthz`.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

impl Server {
    /// Spawns `hotwire serve` with `threads` workers and returns it with
    /// its set-up time: spawn until the first 200 on `/healthz`.
    ///
    /// The port is chosen here, so the first `/healthz` can be sent as
    /// soon as the socket listens: it then waits in the backlog for the
    /// accept loop instead of racing the loop's idle poll, which would
    /// make the set-up time bimodal.
    pub fn start(bin: &str, threads: usize) -> io::Result<(Server, Duration)> {
        let addr = TcpListener::bind("127.0.0.1:0")?.local_addr()?;
        let start = Instant::now();
        let mut child = Command::new(bin)
            .args(["serve", "--addr", &addr.to_string(), "--threads"])
            .arg(threads.to_string())
            .env("RAYON_NUM_THREADS", threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let server = Server {
            child,
            addr,
            _stdout: stdout,
            reaped: false,
        };
        loop {
            match http::request(addr, "GET", "/healthz", "") {
                Ok(Reply { status: 200, .. }) => return Ok((server, start.elapsed())),
                _ if start.elapsed() > READY_TIMEOUT => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("server on {addr} never answered /healthz with 200"),
                    ));
                }
                _ => std::thread::yield_now(),
            }
        }
    }

    /// Stops the server and returns its peak resident set.
    pub fn stop(mut self) -> io::Result<Reaped> {
        self.kill()
    }

    fn kill(&mut self) -> io::Result<Reaped> {
        // Reaped exactly once: after that the pid may belong to another
        // process.
        self.reaped = true;
        proc::kill(&mut self.child)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.kill();
        }
    }
}

/// Sends the request `op` stands for.
pub fn send(addr: SocketAddr, op: &Op) -> io::Result<Reply> {
    match op {
        Op::Signoff(size) => http::request(addr, "POST", "/signoff", &signoff_body(*size)),
        Op::Metrics => http::request(addr, "GET", "/metrics", ""),
        Op::Coupled(_) | Op::Tree(_) => unreachable!("CLI inputs are never sent over HTTP"),
    }
}

/// Plays `deck` once against the server with `clients` closed-loop clients.
pub fn play(addr: SocketAddr, deck: &[Op], clients: usize) -> Vec<Sample<io::Result<Reply>>> {
    http::closed_loop(clients, deck.len(), |i| send(addr, &deck[i]))
}
