//! Spawning the program under test and reaping it with its resource
//! usage.
//!
//! `std::process::Child::wait` discards the child's `rusage`, and the
//! peak resident set of the process under test is an end-to-end metric,
//! so children are reaped with `wait4(2)` instead. Linux on a 64-bit
//! target only: that is where the `rusage` layout below holds.

use std::io::{self, Read};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("hwbench reaps children with wait4(2): Linux on a 64-bit target only");

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long`s of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reaped {
    /// Exit code, or `128 + signal` when a signal ended it.
    pub exit: i32,
    /// Peak resident set, KiB.
    pub max_rss_kib: u64,
}

/// Blocks until `child` ends and returns its status and peak RSS. The
/// caller must not also `wait` on `child`.
pub fn reap(child: &Child) -> io::Result<Reaped> {
    let pid = i32::try_from(child.id())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, exclusively borrowed
        // locals of the types wait4 writes (`int` and `struct rusage`,
        // whose 64-bit Linux layout `Rusage` reproduces); `pid` is our
        // own unreaped child, so no other process is affected.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let exit = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    Ok(Reaped {
        exit,
        max_rss_kib: u64::try_from(usage.ru_maxrss).unwrap_or(0),
    })
}

/// One finished CLI process.
#[derive(Debug, Clone)]
pub struct Finished {
    pub reaped: Reaped,
    pub stdout: String,
    pub stderr: String,
    /// Spawn to exit.
    pub wall: Duration,
}

/// Runs `bin args…` to completion with `env` added, capturing both
/// output streams.
pub fn run(bin: &str, args: &[String], env: &[(&str, String)]) -> io::Result<Finished> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .envs(env.iter().map(|(k, v)| (*k, v.as_str())))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut out = child.stdout.take().expect("stdout was piped");
    let mut err = child.stderr.take().expect("stderr was piped");
    let (stdout, stderr, reaped) = std::thread::scope(|s| {
        let stderr = s.spawn(move || {
            let mut buf = String::new();
            err.read_to_string(&mut buf).map(|_| buf)
        });
        let mut stdout = String::new();
        let read = out.read_to_string(&mut stdout);
        let reaped = reap(&child);
        let stderr = stderr.join().expect("stderr reader panicked");
        (read.map(|_| stdout), stderr, reaped)
    });
    let reaped = reaped?;
    Ok(Finished {
        reaped,
        stdout: stdout?,
        stderr: stderr?,
        wall: start.elapsed(),
    })
}

/// Kills a long-running child (the server) and reaps it.
pub fn kill(child: &mut Child) -> io::Result<Reaped> {
    child.kill()?;
    reap(child)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_code_output_and_rss_are_reported() {
        let f = run(
            "sh",
            &["-c".to_owned(), "echo out; echo err >&2; exit 3".to_owned()],
            &[],
        )
        .unwrap();
        assert_eq!(f.reaped.exit, 3);
        assert_eq!(f.stdout, "out\n");
        assert_eq!(f.stderr, "err\n");
        assert!(f.reaped.max_rss_kib > 0);
    }

    #[test]
    fn a_killed_child_reports_its_signal() {
        let mut child = Command::new("sleep").arg("30").spawn().unwrap();
        assert_eq!(kill(&mut child).unwrap().exit, 128 + 9);
    }
}
