//! Runs one benchmark workload and prints its result line.
//!
//! ```text
//! d2net-perfbench --workload <coral_sweep|exchange_a2a|coral_certify>
//!                 --seed <n> --seconds <s> --trace <0|1> --out <dir>
//! ```
//!
//! Progress and diagnostics go to stderr; the last line of stdout is the
//! JSON result. `perfbench/run.py` builds this binary and adds the peak
//! resident memory.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use d2net_perfbench::timing::Clock;
use d2net_perfbench::{certify, exchange, sweep};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !["coral_sweep", "exchange_a2a", "coral_certify"].contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed must be a non-negative integer")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out: PathBuf::from(value("--out")?),
    })
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Before any thread exists: one sweep worker over two engine shards,
    // the machine's two CPUs, and no fault injection from the caller.
    std::env::set_var("D2NET_THREADS", "2");
    std::env::set_var("D2NET_SHARDS", "2");
    std::env::remove_var("D2NET_CHAOS");
    let out = args
        .out
        .join(format!("{}-seed{}", args.workload, args.seed));
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        return ExitCode::from(1);
    }

    let mut clock = Clock::new(args.trace, start);
    let mut outcome = match args.workload.as_str() {
        "coral_sweep" => sweep::run(args.seed, args.seconds, &mut clock, &out, start),
        "exchange_a2a" => exchange::run(args.seed, args.seconds, &mut clock, start),
        _ => certify::run(args.seed, args.seconds, &mut clock, start),
    };
    if args.trace {
        let path = out.join("spans.jsonl");
        if let Err(e) = clock.write(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        eprintln!("perfbench: spans written to {}", path.display());
    }
    let line = outcome.to_json(args.trace);
    for v in &outcome.violations {
        eprintln!("perfbench: CHECK FAILED {v}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}
