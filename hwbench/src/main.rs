//! hwbench — the hotwire benchmark harness.
//!
//! ```text
//! hwbench --hotwire <release binary> --work <dir>
//!         --workload <grid-picard|grid-padded|tree-em|serve-mixed>
//!         --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the release binary end to end; `--trace 1` replays
//! the same generated inputs in-process for the per-layer metrics. The
//! last stdout line is the JSON result; `hwbench/run.sh` builds both
//! binaries and calls this. See `hwbench/README.md`.

mod e2e;
mod gen;
mod http;
mod inproc;
mod layers;
mod oracle;
mod proc;
mod report;
mod server;
mod stats;

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

use hotwire::obs::json::Json;

use crate::gen::Kind;

struct Args {
    hotwire: String,
    work: String,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if !raw.len().is_multiple_of(2) {
        return Err("arguments come in `--flag value` pairs".to_owned());
    }
    let mut flags = HashMap::new();
    for pair in raw.chunks(2) {
        let key = pair[0]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{}`", pair[0]))?;
        flags.insert(key.to_owned(), pair[1].clone());
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    let kind = Kind::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let number = |k: &str| -> Result<f64, String> {
        get(k)?
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| format!("--{k} needs a non-negative number"))
    };
    Ok(Args {
        hotwire: get("hotwire")?.clone(),
        work: get("work")?.clone(),
        kind,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed needs a non-negative integer".to_owned())?,
        seconds: number("seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        },
    })
}

/// Refuses anything but optimized code on both sides of the measurement.
fn check_release(hotwire: &str) -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("hwbench itself is a debug build; build it with --release".to_owned());
    }
    let profile = Path::new(hotwire)
        .parent()
        .and_then(Path::file_name)
        .and_then(|n| n.to_str());
    if profile != Some("release") {
        return Err(format!(
            "{hotwire} is not a release build (profile directory {profile:?})"
        ));
    }
    if !Path::new(hotwire).is_file() {
        return Err(format!("{hotwire} does not exist"));
    }
    Ok(())
}

fn run() -> Result<report::Outcome, String> {
    let args = parse_args()?;
    check_release(&args.hotwire)?;
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // Pin the in-process thread pool the way the children are pinned.
    std::env::set_var("RAYON_NUM_THREADS", nproc.to_string());
    let work = Path::new(&args.work);
    std::fs::create_dir_all(work).map_err(|e| format!("cannot create {}: {e}", args.work))?;

    let batch = gen::generate(args.kind, args.seed);
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let jiffies_before = report::cpu_jiffies();
    println!(
        "hwbench {} seed {} ({})",
        args.kind.name(),
        args.seed,
        if args.trace {
            "traced in-process replay"
        } else {
            "end to end, tracing off"
        }
    );
    let outcome = if args.trace {
        layers::run(args.kind, args.seed, &args.hotwire, work, nproc)?
    } else {
        e2e::run(&batch, &args.hotwire, work, args.seconds, nproc)?
    };
    if !args.trace {
        for m in &outcome.metrics {
            println!("  {:<14}{:>14.4} {}", m.name, m.value, m.unit);
        }
    }
    for line in &outcome.lines {
        println!("{line}");
    }
    #[allow(clippy::cast_precision_loss)]
    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  oracle: {} ({} of {} operations failed, failed_ratio {failed_ratio})",
        if outcome.correct() {
            "correct"
        } else {
            "INCORRECT"
        },
        outcome.failed,
        outcome.attempted
    );
    for note in &outcome.notes {
        eprintln!("hwbench: {note}");
    }
    #[allow(clippy::cast_precision_loss)]
    let steal_pct = match (jiffies_before, report::cpu_jiffies()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            Json::from(100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => Json::Null,
    };
    let provenance = Json::object([
        ("workload", Json::from(args.kind.name())),
        ("seed", Json::from(args.seed)),
        (
            "inputs_fnv1a64",
            Json::from(format!("{:016x}", batch.hash())),
        ),
        ("trace", Json::from(args.trace)),
        ("seconds", Json::from(args.seconds)),
        ("nproc", Json::from(nproc)),
        ("rayon_num_threads", Json::from(nproc)),
        ("serve_threads", Json::from(nproc)),
        ("clients", Json::from(http::client_cap(nproc))),
        ("revision", Json::from(report::revision(&root))),
        ("build_profile", Json::from("release")),
        ("host_steal_pct", steal_pct),
    ]);
    println!("provenance {provenance}");
    Ok(outcome)
}

fn main() -> ExitCode {
    match run() {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hwbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use hotwire::obs::json::{self, Json};

    /// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(list)
            .and_then(Json::as_array)
            .expect("metric list present")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_hwbench_reports() {
        let e2e: Vec<(String, String)> = crate::e2e::END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = crate::layers::PER_LAYER
            .iter()
            .map(|(n, u, ..)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }
}
