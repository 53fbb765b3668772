//! `bench_diff`: perf-history append and regression gate over
//! `perfbench` result lines (see EXPERIMENTS.md).
//!
//! ```text
//! bench_diff append WORKLOAD SEED SECONDS TRACE OUTPUT [--history PATH] [--label L]
//! bench_diff compare [--history PATH]
//! ```
//!
//! `append` takes the result line, the last line of `OUTPUT` (the saved
//! standard output of `python3 perfbench/run.py --workload WORKLOAD
//! --seed SEED --seconds SECONDS --trace TRACE`), and appends one
//! `d2net.bench-history/v2` record with this host's stamp to the
//! history file (default `results/bench_history.jsonl`). It refuses a
//! result with `"correct":false`.
//!
//! `compare` judges, per workload, the latest two builds (labels) by
//! the medians of their untraced records against the end-to-end bounds
//! in `./BENCHMARK.json`, one coded line per metric (`REGRESSION` /
//! `IMPROVEMENT` / `NEUTRAL`, plus `ADDED`/`REMOVED`), or
//! `INCOMPARABLE` when the records come from more than one host. Exit
//! status: 0 clean, 1 when any metric regressed, 2 on usage, unreadable
//! input, or a history with no two builds to compare.

use d2net_bench::diff::{
    append_history, bounds_from_benchmark, compare, read_history, render_record, result_line, Host,
    Stamp,
};
use std::path::PathBuf;

fn usage(err: &str) -> ! {
    eprintln!("bench_diff: {err}");
    eprintln!(
        "usage: bench_diff append WORKLOAD SEED SECONDS TRACE OUTPUT [--history PATH] [--label L]"
    );
    eprintln!("       bench_diff compare [--history PATH]");
    std::process::exit(2);
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mode = args.next().unwrap_or_else(|| usage("missing mode"));
    let mut positional = Vec::new();
    let mut history = PathBuf::from("results/bench_history.jsonl");
    let mut label = String::from("run");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--history" => {
                history = args
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| usage("--history wants a path"))
            }
            "--label" => {
                label = args
                    .next()
                    .unwrap_or_else(|| usage("--label wants a value"))
            }
            other if !other.starts_with('-') => positional.push(arg),
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    match (mode.as_str(), &positional[..]) {
        ("append", [workload, seed, seconds, trace, output]) => {
            let number = |v: &str, what: &str| {
                v.parse::<u64>()
                    .unwrap_or_else(|_| usage(&format!("{what} wants a non-negative integer")))
            };
            let stamp = Stamp {
                ts_ms: std::time::SystemTime::now()
                    .duration_since(std::time::SystemTime::UNIX_EPOCH)
                    .map(|d| d.as_millis() as u64)
                    .unwrap_or(0),
                label,
                workload: workload.clone(),
                seed: number(seed, "SEED"),
                seconds: number(seconds, "SECONDS"),
                traced: match trace.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("TRACE wants 0 or 1"),
                },
                host: Host::this_machine(),
            };
            let text = read(output);
            let line = result_line(&text)
                .and_then(|line| render_record(&stamp, line))
                .unwrap_or_else(|e| usage(&format!("{output}: {e}")));
            append_history(&history, &line)
                .unwrap_or_else(|e| usage(&format!("cannot append {}: {e}", history.display())));
            println!(
                "benchdiff: appended {} seed {} (trace {trace}) as '{}' on {} to {}",
                stamp.workload,
                stamp.seed,
                stamp.label,
                stamp.host,
                history.display()
            );
        }
        ("compare", []) => {
            let bounds = bounds_from_benchmark(&read("BENCHMARK.json"))
                .unwrap_or_else(|e| usage(&format!("BENCHMARK.json: {e}")));
            let records = read_history(&read(&history.to_string_lossy()))
                .unwrap_or_else(|e| usage(&format!("{}: {e}", history.display())));
            let report = compare(&records, &bounds);
            print!("{}", report.render());
            if report.paired == 0 {
                usage(&format!(
                    "{} holds no workload with two builds to compare",
                    history.display()
                ));
            }
            if report.regressions > 0 {
                std::process::exit(1);
            }
        }
        ("append", _) => usage("append wants WORKLOAD SEED SECONDS TRACE OUTPUT"),
        ("compare", _) => usage("compare takes no positional argument"),
        (other, _) => usage(&format!("unknown mode '{other}'")),
    }
}
