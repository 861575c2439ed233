//! Regenerates every table and figure of the DAC'99 paper.
//!
//! ```text
//! cargo run --release -p hotwire-bench --bin repro -- --experiment all
//! cargo run --release -p hotwire-bench --bin repro -- --experiment fig2
//! cargo run --release -p hotwire-bench --bin repro -- --jobs 4
//! cargo run --release -p hotwire-bench --bin repro -- --list
//! ```
//!
//! With more than one experiment selected and `--jobs > 1` (the default
//! follows the machine's parallelism), experiments run as child
//! processes of this same binary and their captured output is printed
//! **in selection order** — byte-identical to a serial run.

use std::process::ExitCode;

use hotwire_bench::experiments;
use rayon::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut selected: Vec<String> = Vec::new();
    let mut csv_dir: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--csv" => {
                if i + 1 >= args.len() {
                    eprintln!("--csv needs a directory");
                    return ExitCode::FAILURE;
                }
                csv_dir = Some(args[i + 1].clone());
                i += 2;
            }
            "--experiment" | "-e" => {
                if i + 1 >= args.len() {
                    eprintln!("--experiment needs a value");
                    return ExitCode::FAILURE;
                }
                selected.push(args[i + 1].clone());
                i += 2;
            }
            "--jobs" | "-j" => {
                jobs = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0);
                if jobs.is_none() {
                    eprintln!("--jobs needs a positive integer");
                    return ExitCode::FAILURE;
                }
                i += 2;
            }
            "--list" | "-l" => {
                for id in experiments::ALL {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--experiment <id|all>]... [--jobs <n>] [--csv <dir>] [--list]\n\
                     regenerates the tables and figures of Banerjee et al., DAC 1999;\n\
                     --csv additionally writes the figure data series as CSV files;\n\
                     --jobs bounds experiment-level parallelism (default: machine cores,\n\
                     output order is deterministic either way)\n\
                     known experiments: {}",
                    experiments::ALL.join(", ")
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }
    // `--jobs` bounds both the experiment fan-out here and the
    // sweep-level rayon parallelism inside each experiment (children get
    // the same `--jobs`); without it the pool takes rayon's default.
    match rayon::ThreadPoolBuilder::new()
        .num_threads(jobs.unwrap_or(0))
        .build()
    {
        Ok(pool) => pool.install(|| run(selected, csv_dir.as_deref(), jobs)),
        Err(e) => {
            eprintln!("cannot build the thread pool: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Writes the CSV series if asked, then runs the selected experiments.
fn run(mut selected: Vec<String>, csv_dir: Option<&str>, jobs: Option<usize>) -> ExitCode {
    if let Some(dir) = csv_dir {
        match hotwire_bench::csv_export::write_all(std::path::Path::new(dir)) {
            Ok(files) => println!("wrote {} to {dir}\n", files.join(", ")),
            Err(e) => {
                eprintln!("csv export failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        if selected.is_empty() {
            return ExitCode::SUCCESS;
        }
    }
    if selected.is_empty() || selected.iter().any(|s| s == "all") {
        selected = experiments::ALL.iter().map(|s| (*s).to_owned()).collect();
    }
    if selected.len() > 1 && rayon::current_num_threads() > 1 {
        return run_parallel(&selected, jobs);
    }
    for (k, id) in selected.iter().enumerate() {
        if k > 0 {
            println!("\n{}\n", "=".repeat(78));
        }
        if let Err(e) = experiments::run(id) {
            eprintln!("experiment `{id}` failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Runs each experiment as `repro --experiment <id>` child process and
/// relays the captured output in selection order, so the bytes on stdout
/// match a serial in-process run.
fn run_parallel(selected: &[String], jobs: Option<usize>) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outputs: Vec<std::io::Result<std::process::Output>> = selected
        .par_iter()
        .map(|id| {
            let mut child = std::process::Command::new(&exe);
            child.args(["--experiment", id]);
            if let Some(n) = jobs {
                child.args(["--jobs", &n.to_string()]);
            }
            child.output()
        })
        .collect();
    let mut code = ExitCode::SUCCESS;
    for (k, (id, out)) in selected.iter().zip(&outputs).enumerate() {
        if k > 0 {
            println!("\n{}\n", "=".repeat(78));
        }
        match out {
            Ok(out) => {
                print!("{}", String::from_utf8_lossy(&out.stdout));
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                if !out.status.success() {
                    code = ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("experiment `{id}` failed to spawn: {e}");
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}
