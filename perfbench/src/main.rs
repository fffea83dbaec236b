//! Workload benchmark of the MARS reproduction.
//!
//! ```text
//! perfbench --workload <map|elastic|serve|serve_traced> --seed <n>
//!           --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! Builds the workload's inputs from the seed, runs its ops back to back
//! from this one process (a closed loop with one caller) for about
//! `--seconds` seconds, checks every output, and prints the metrics.  The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.  The worker-thread
//! count comes from `MARS_THREADS`; `run.py` builds this binary and sets it.
//! `README.md` next to this crate describes the workloads and metrics.

#![forbid(unsafe_code)]

mod elastic;
mod harness;
mod map;
mod serve;

use harness::Harness;
use std::path::PathBuf;

const USAGE: &str = "usage: perfbench --workload <map|elastic|serve|serve_traced> --seed <n> \
                     --seconds <s> --trace <0|1> [--out-dir <dir>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["map", "elastic", "serve", "serve_traced"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let threads = mars_parallel::resolve_threads(mars_parallel::threads_from_env());
    let h = Harness::new(args.seconds, args.trace, threads);
    let sims = match args.workload.as_str() {
        "map" => map::run(&h, args.seed),
        "elastic" => elastic::run(&h, args.seed),
        "serve" => serve::run(&h, args.seed, serve::Mode::Plain),
        _ => serve::run(&h, args.seed, serve::Mode::Observed),
    };
    h.finish(&args.workload, args.seed, &sims, args.out_dir.as_deref());
}
