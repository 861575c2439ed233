//! End-to-end test of `hotwire serve`: real process, real sockets.
//!
//! Starts the binary on an ephemeral port, scrapes `/metrics` and
//! `/healthz` over raw TCP (the workspace has no HTTP client, and the
//! server speaks `Connection: close` one-shot HTTP/1.1 — a 60-line
//! client below covers it), exercises `POST /signoff`, then sends
//! SIGTERM and requires a graceful exit 0. A second test signals an
//! idle server, which must wake itself for SIGUSR1 and SIGTERM.

use std::io::{BufRead, BufReader, Lines, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Starts `hotwire serve` on port 0 with a tiny signoff grid (plus
/// `extra` flags) and returns the child, the bound address parsed from
/// stdout, and the rest of stdout.
fn start_server(extra: &[&str]) -> (Child, String, Lines<BufReader<ChildStdout>>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hotwire"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--rows",
            "6",
            "--cols",
            "6",
            "--threads",
            "2",
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let first = lines
        .next()
        .expect("server announces its address")
        .expect("stdout is UTF-8");
    // "listening on http://127.0.0.1:PORT (...)"
    let addr = first
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unparsable announcement: {first}"))
        .to_owned();
    (child, addr, lines)
}

/// Sends `signal` (e.g. `-TERM`) to the child with `kill(1)`.
fn kill(child: &Child, signal: &str) {
    let killed = Command::new("kill")
        .args([signal, &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(killed.success());
}

/// Waits for the child to exit, failing the test after 15 s.
fn wait_for_exit(child: &mut Child) -> ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        match child.try_wait().expect("wait works") {
            Some(status) => return status,
            None => {
                assert!(
                    Instant::now() < deadline,
                    "server did not exit within 15 s of SIGTERM"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// One blocking HTTP exchange; returns `(status, headers, body)`.
fn http(addr: &str, request: &str) -> (u16, String, String) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut stream = loop {
        match TcpStream::connect(addr) {
            Ok(s) => break s,
            Err(e) => {
                assert!(Instant::now() < deadline, "cannot connect to {addr}: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header terminator in: {response:?}"));
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {head:?}"));
    (status, head.to_owned(), body.to_owned())
}

fn get(addr: &str, path: &str) -> (u16, String, String) {
    http(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"),
    )
}

/// Minimal Prometheus 0.0.4 exposition check: every sample line has a
/// legal metric name and a numeric value, and is preceded by a TYPE
/// header for its family.
fn assert_exposition_parses(text: &str) {
    let mut families: Vec<String> = Vec::new();
    let mut samples = 0;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            families.push(parts.next().expect("TYPE names a metric").to_owned());
            let kind = parts.next().expect("TYPE has a kind");
            assert!(
                ["counter", "gauge", "summary", "histogram", "untyped"].contains(&kind),
                "bad TYPE kind: {line}"
            );
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without value: {line:?}");
        });
        let name = series.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "illegal metric name: {name}"
        );
        let base = name
            .trim_end_matches("_sum")
            .trim_end_matches("_count")
            .trim_end_matches("_min")
            .trim_end_matches("_max");
        assert!(
            families.iter().any(|f| f == name || f == base),
            "sample {name} has no TYPE header"
        );
        assert!(value.parse::<f64>().is_ok(), "bad sample value: {line:?}");
        samples += 1;
    }
    assert!(samples > 0, "exposition has no samples:\n{text}");
}

/// Counter value of `name` in an exposition dump (0 when absent).
fn counter_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find(|l| l.starts_with(name) && l.split_whitespace().next() == Some(name))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0.0)
}

#[test]
fn serve_scrapes_signs_off_and_shuts_down_gracefully() {
    let (mut child, addr, _stdout) = start_server(&[]);

    // /healthz answers 200 immediately.
    let (status, _, body) = get(&addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");

    // /metrics is valid exposition with the right content type.
    let (status, head, text) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        head.to_lowercase().contains("version=0.0.4"),
        "exposition content type missing: {head}"
    );
    assert_exposition_parses(&text);
    let telemetry = cfg!(feature = "telemetry");
    assert!(text.contains(if telemetry {
        "hotwire_telemetry_enabled 1"
    } else {
        "hotwire_telemetry_enabled 0"
    }));
    let requests_before = counter_value(&text, "hotwire_serve_requests_total");
    if telemetry {
        assert!(requests_before >= 1.0, "the scrape itself is counted");
    }

    // POST /signoff runs a real coupled solve and reports its verdict,
    // echoing the server-assigned request ID in a response header.
    let (status, head, body) = http(
        &addr,
        &format!(
            "POST /signoff HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\n\
             Connection: close\r\n\r\n"
        ),
    );
    assert_eq!(status, 200, "signoff failed: {body}");
    assert!(body.contains("\"iterations\""), "{body}");
    let request_id = head
        .lines()
        .find_map(|l| l.strip_prefix("X-Hotwire-Request-Id: "))
        .unwrap_or_else(|| panic!("no X-Hotwire-Request-Id header in: {head}"));
    assert!(request_id.starts_with("req-"), "{request_id}");

    // Unknown path → 404; the server keeps running, and every response
    // (this one included) carries a distinct request ID.
    let (status, head, _) = get(&addr, "/nope");
    assert_eq!(status, 404);
    let other_id = head
        .lines()
        .find_map(|l| l.strip_prefix("X-Hotwire-Request-Id: "))
        .expect("404 responses carry a request id too");
    assert_ne!(other_id, request_id, "ids are per-request");

    // Counters are monotone across scrapes, and the signoff timers now
    // carry observations.
    if telemetry {
        let (_, _, text2) = get(&addr, "/metrics");
        let requests_after = counter_value(&text2, "hotwire_serve_requests_total");
        assert!(
            requests_after > requests_before,
            "{requests_after} vs {requests_before}"
        );
        assert!(counter_value(&text2, "hotwire_serve_signoffs_total") >= 1.0);
        assert!(counter_value(&text2, "hotwire_coupled_run_seconds_count") >= 1.0);
        // The per-request latency histogram (fed by the request-scoped
        // `serve.request` span) is scrapeable.
        assert!(
            counter_value(&text2, "hotwire_serve_request_seconds_count") >= 1.0,
            "serve.request histogram missing from:\n{text2}"
        );
    }

    // SIGTERM → graceful drain → exit 0.
    kill(&child, "-TERM");
    let status = wait_for_exit(&mut child);
    assert_eq!(status.code(), Some(0), "graceful shutdown must exit 0");
}

#[test]
fn an_idle_server_wakes_itself_for_sigusr1_and_sigterm() {
    let dir = std::env::temp_dir().join(format!("hotwire-serve-e2e-{}", std::process::id()));
    let (mut child, _addr, mut stdout) =
        start_server(&["--bundle-dir", dir.to_str().expect("UTF-8 temp dir")]);

    // No request is ever sent: the server must wake its own accept loop.
    kill(&child, "-USR1");
    let deadline = Instant::now() + Duration::from_secs(10);
    let bundle = loop {
        let written = std::fs::read_dir(&dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|entry| entry.path())
            .find(|path| path.extension().is_some_and(|e| e == "json"));
        if let Some(path) = written {
            break path;
        }
        assert!(
            Instant::now() < deadline,
            "no SIGUSR1 bundle within 10 s on an idle server"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    let announced = stdout
        .next()
        .expect("server announces the bundle")
        .expect("stdout is UTF-8");
    assert_eq!(
        announced,
        format!("diagnostic bundle: {}", bundle.display()),
        "stdout names the bundle that was written"
    );
    let doc = hotwire::obs::json::parse(&std::fs::read_to_string(&bundle).unwrap()).unwrap();
    assert_eq!(
        doc.get("reason").and_then(hotwire::obs::json::Json::as_str),
        Some("sigusr1")
    );

    let sent = Instant::now();
    kill(&child, "-TERM");
    let status = wait_for_exit(&mut child);
    let waited = sent.elapsed();
    assert_eq!(status.code(), Some(0), "graceful shutdown must exit 0");
    assert!(
        waited < Duration::from_secs(1),
        "SIGTERM to exit took {waited:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
