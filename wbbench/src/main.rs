//! `wbbench` — the repository benchmark: both front doors of the system,
//! end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path wbbench/Cargo.toml -- \
//!     --workload engine_tail|wbd_bulk \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Every run first builds the release `wbd`
//! binary from the repository workspace (a no-op when it is up to date),
//! generates its inputs from `--seed`, measures untraced for `--seconds`,
//! checks every output against an offline reference, and prints one JSON
//! object as the last line of stdout: the end-to-end metrics with
//! `--trace 0`; with `--trace 1`, the per-layer metrics of a traced replay
//! of an untraced pass of half that length. Any correctness mismatch
//! exits non-zero.

mod clock;
mod daemon;
mod engine;
mod replay;
mod report;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const WORKLOADS: &[&str] = &["engine_tail", "wbd_bulk"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("wbbench: {msg}");
    eprintln!(
        "usage: wbbench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn invalid(flag: &str, value: &str) -> ! {
    usage(&format!("{flag}: invalid value {value:?}"))
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| invalid(&flag, &value))),
            "--seconds" => {
                let s: f64 = value.parse().unwrap_or_else(|_| invalid(&flag, &value));
                if !(s > 0.0 && s <= 600.0) {
                    invalid(&flag, &value);
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => invalid(&flag, &value),
                })
            }
            _ => invalid(&flag, &value),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// Build the release `wbd` from the repository workspace in the current
/// directory and return its path. Cargo's own output goes to stderr.
fn build_wbd() -> Result<PathBuf, String> {
    if !std::path::Path::new("crates/daemon/Cargo.toml").is_file() {
        return Err("run from the repository root (crates/daemon not found)".into());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "wb-daemon",
            "--bin",
            "wbd",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building wbd failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let wbd = target.join("release").join("wbd");
    if wbd.is_file() {
        Ok(wbd)
    } else {
        Err(format!("{} missing after build", wbd.display()))
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let wbd = match build_wbd() {
        Ok(path) => path,
        Err(e) => {
            eprintln!("wbbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "wbbench: {} seed {} for {} s, trace {}, {} cores",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    // A traced run splits its time between the untraced pass (the wall
    // time the split must account for) and the traced replay of that pass.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let outcome = if engine::is_engine(&args.workload) {
        engine::run(&args.workload, args.seed, seconds, args.trace)
    } else {
        match daemon::run(&wbd, args.seed, seconds, args.trace) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("wbbench: {}: {e}", args.workload);
                return ExitCode::FAILURE;
            }
        }
    };
    outcome.print_table();
    eprintln!(
        "wbbench: failed_frac {} ({} of {} operations)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!("{}", outcome.result_line(args.trace));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
