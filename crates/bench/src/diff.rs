//! The perf history and its regression gate (`bench_diff`).
//!
//! `perfbench` is the repository's one benchmark: `python3
//! perfbench/run.py` prints one result line last,
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. Each run
//! can be appended as one JSONL record (schema
//! `d2net.bench-history/v2`) to `results/bench_history.jsonl`: the run's
//! workload, seed, seconds and trace flag, a label (CI uses the git
//! revision), the host it ran on, and the result line verbatim.
//!
//! [`compare`] judges, per workload, the latest two builds (labels) by
//! the medians of their untraced records: every end-to-end metric
//! against the `bound` and `better` direction `BENCHMARK.json` gives it,
//! plus the failed share of operations. A build with one record is that
//! record. Records from different hosts are `INCOMPARABLE`, never a
//! regression; traced records are evidence only and never compared.

use d2net_core::compare::Json;
use d2net_core::report::JsonWriter;
use std::io::Write;
use std::path::Path;

/// Schema tag carried by every history record.
pub const HISTORY_SCHEMA: &str = "d2net.bench-history/v2";

/// The machine a record was taken on. Host times from different
/// machines say nothing about the code, so only equal hosts compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// `std::thread::available_parallelism` of the recording process.
    pub cpus: u64,
    /// The first `model name` of `/proc/cpuinfo` (empty when unknown).
    pub cpu_model: String,
}

impl Host {
    /// The machine this process runs on.
    pub fn this_machine() -> Host {
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .filter_map(|l| l.split_once(':'))
                    .find(|(k, _)| k.trim() == "model name")
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_default();
        Host { cpus, cpu_model }
    }
}

impl std::fmt::Display for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "'{} cpus, {}'", self.cpus, self.cpu_model)
    }
}

/// Everything a record says about its run apart from the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamp {
    /// Wall-clock stamp, milliseconds since the Unix epoch.
    pub ts_ms: u64,
    /// Caller-chosen tag (CI uses `git rev-parse --short HEAD`).
    pub label: String,
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub host: Host,
}

/// A parsed `perfbench` result line.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in the line's order.
    pub metrics: Vec<(String, f64)>,
}

impl PerfResult {
    fn from_json(doc: &Json) -> Result<PerfResult, String> {
        let correct = match doc.get("correct") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("result has no boolean \"correct\"".into()),
        };
        let count = |key: &str| {
            doc.get(key)
                .and_then(|j| j.as_u64())
                .ok_or_else(|| format!("result has no \"{key}\" count"))
        };
        let metrics = match doc.get("metrics") {
            Some(Json::Object(fields)) => fields
                .iter()
                .map(|(name, m)| {
                    m.get("value")
                        .and_then(|v| v.as_f64())
                        .map(|v| (name.clone(), v))
                        .ok_or_else(|| format!("metric {name} has no value"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("result has no \"metrics\" object".into()),
        };
        Ok(PerfResult {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// One history record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub stamp: Stamp,
    pub result: PerfResult,
}

/// The result line of `perfbench` output: its last non-empty line.
pub fn result_line(output: &str) -> Result<&str, String> {
    output
        .lines()
        .map(str::trim)
        .rfind(|l| !l.is_empty())
        .ok_or_else(|| "no result line".to_string())
}

/// Renders one record as a single JSONL line (no trailing newline),
/// with `line` spliced in verbatim as its `"result"`. Refuses a line
/// that does not parse, says `"correct":false`, or whose metric set
/// does not match the trace flag (an untraced run reports `run_s`, a
/// traced one the per-layer set without it).
pub fn render_record(stamp: &Stamp, line: &str) -> Result<String, String> {
    let result = PerfResult::from_json(&Json::parse(line)?)?;
    if !result.correct {
        return Err("the result says \"correct\":false; an incorrect run is not recorded".into());
    }
    if result.metric("run_s").is_some() == stamp.traced {
        return Err(format!(
            "the result's metrics do not match trace flag {}",
            u8::from(stamp.traced)
        ));
    }
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema").string(HISTORY_SCHEMA);
    w.key("ts_ms").u64(stamp.ts_ms);
    w.key("label").string(&stamp.label);
    w.key("workload").string(&stamp.workload);
    w.key("seed").u64(stamp.seed);
    w.key("seconds").u64(stamp.seconds);
    w.key("trace").bool(stamp.traced);
    w.key("host").begin_object();
    w.key("cpus").u64(stamp.host.cpus);
    w.key("cpu_model").string(&stamp.host.cpu_model);
    w.end_object();
    w.key("result").raw(line);
    w.end_object();
    Ok(w.finish())
}

fn parse_record(line: &str) -> Result<Record, String> {
    let doc = Json::parse(line)?;
    let schema = doc.get("schema").and_then(|j| j.as_str());
    if schema != Some(HISTORY_SCHEMA) {
        return Err(format!("unsupported history schema {schema:?}"));
    }
    let text = |key: &str| {
        doc.get(key)
            .and_then(|j| j.as_str())
            .map(str::to_string)
            .ok_or_else(|| format!("record has no \"{key}\""))
    };
    let count = |j: Option<&Json>, key: &str| {
        j.and_then(|j| j.as_u64())
            .ok_or_else(|| format!("record has no \"{key}\""))
    };
    let host = doc.get("host");
    let stamp = Stamp {
        ts_ms: count(doc.get("ts_ms"), "ts_ms")?,
        label: text("label")?,
        workload: text("workload")?,
        seed: count(doc.get("seed"), "seed")?,
        seconds: count(doc.get("seconds"), "seconds")?,
        traced: match doc.get("trace") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("record has no boolean \"trace\"".into()),
        },
        host: Host {
            cpus: count(host.and_then(|h| h.get("cpus")), "host.cpus")?,
            cpu_model: host
                .and_then(|h| h.get("cpu_model"))
                .and_then(|j| j.as_str())
                .ok_or("record has no \"host.cpu_model\"")?
                .to_string(),
        },
    };
    let result = PerfResult::from_json(doc.get("result").ok_or("record has no \"result\"")?)?;
    Ok(Record { stamp, result })
}

/// Appends one rendered record to the history file, creating it (and
/// its parent directory) on first use.
pub fn append_history(path: &Path, record_line: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{record_line}")
}

/// Reads the full history. A torn final line (a run killed mid-append)
/// is skipped, the same tolerance the point journal applies; a
/// malformed line anywhere else is an error.
pub fn read_history(text: &str) -> Result<Vec<Record>, String> {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut out = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        match parse_record(line) {
            Ok(rec) => out.push(rec),
            Err(_) if i + 1 == lines.len() => {} // torn tail
            Err(e) => return Err(format!("history line {}: {e}", i + 1)),
        }
    }
    Ok(out)
}

/// An end-to-end metric's judging rule from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Largest relative change in the worse direction that is not a
    /// regression.
    pub bound: f64,
}

/// Reads the `end_to_end` metrics of a `BENCHMARK.json` document.
pub fn bounds_from_benchmark(text: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(text)?;
    doc.get("end_to_end")
        .and_then(|j| j.as_array())
        .ok_or("BENCHMARK.json has no end_to_end array")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(|j| j.as_str())
                .ok_or("end_to_end metric without a name")?;
            let higher_is_better = match m.get("better").and_then(|j| j.as_str()) {
                Some("higher") => true,
                Some("lower") => false,
                other => return Err(format!("metric {name}: bad \"better\" {other:?}")),
            };
            let bound = m
                .get("bound")
                .and_then(|j| j.as_f64())
                .filter(|b| b.is_finite() && *b >= 0.0)
                .ok_or_else(|| format!("metric {name}: bad \"bound\""))?;
            Ok(Bound {
                name: name.to_string(),
                higher_is_better,
                bound,
            })
        })
        .collect()
}

/// The gate's output: one coded line per judged metric and per
/// workload it could not judge, and the verdict counts.
#[derive(Debug, Default)]
pub struct DiffReport {
    pub lines: Vec<String>,
    /// Workloads with two builds, comparable or not.
    pub paired: usize,
    pub incomparable: usize,
    pub regressions: usize,
    pub improvements: usize,
    pub neutral: usize,
}

/// Relative change from `prev` to `latest`, signed so that a positive
/// value is worse.
fn worsening(prev: f64, latest: f64, higher_is_better: bool) -> f64 {
    let rise = if prev != 0.0 {
        (latest - prev) / prev.abs()
    } else if latest == 0.0 {
        0.0
    } else {
        f64::INFINITY.copysign(latest)
    };
    if higher_is_better {
        -rise
    } else {
        rise
    }
}

fn classify(worse_by: f64, bound: f64) -> &'static str {
    if worse_by > bound {
        "REGRESSION"
    } else if worse_by < -bound {
        "IMPROVEMENT"
    } else {
        "NEUTRAL"
    }
}

/// The median of `name` over the records that report it.
fn median(records: &[&Record], name: &str) -> Option<f64> {
    let mut v: Vec<f64> = records
        .iter()
        .filter_map(|r| r.result.metric(name))
        .collect();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Failed operations over attempted ones, pooled over `records`.
fn failed_share(records: &[&Record]) -> f64 {
    let failed: u64 = records.iter().map(|r| r.result.failed).sum();
    let attempted: u64 = records.iter().map(|r| r.result.attempted).sum();
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

impl DiffReport {
    fn verdict(&mut self, workload: &str, metric: &str, verdict: &'static str, detail: String) {
        match verdict {
            "REGRESSION" => self.regressions += 1,
            "IMPROVEMENT" => self.improvements += 1,
            "NEUTRAL" => self.neutral += 1,
            _ => {}
        }
        self.lines.push(format!(
            "benchdiff: {verdict} workload={workload} metric={metric} {detail}"
        ));
    }

    /// Judges one workload's two builds: each bounded metric's median
    /// (`REGRESSION` / `IMPROVEMENT` / `NEUTRAL`, or `ADDED`/`REMOVED`
    /// when one build lacks it), then the pooled failed share, where any
    /// rise is a regression.
    fn judge(&mut self, workload: &str, prev: &[&Record], latest: &[&Record], bounds: &[Bound]) {
        for b in bounds {
            let (verdict, detail) = match (median(prev, &b.name), median(latest, &b.name)) {
                (Some(p), Some(l)) => {
                    let w = worsening(p, l, b.higher_is_better);
                    let detail = format!(
                        "prev={p} latest={l} worse_by={:+.1}% bound={:.0}%",
                        w * 100.0,
                        b.bound * 100.0
                    );
                    (classify(w, b.bound), detail)
                }
                (Some(p), None) => ("REMOVED", format!("prev={p}")),
                (None, Some(l)) => ("ADDED", format!("latest={l}")),
                (None, None) => continue,
            };
            self.verdict(workload, &b.name, verdict, detail);
        }
        let (p, l) = (failed_share(prev), failed_share(latest));
        let detail = format!("prev={p} latest={l}");
        self.verdict(workload, "failed_share", classify(l - p, 0.0), detail);
    }

    /// The coded lines and a summary line.
    pub fn render(&self) -> String {
        let mut out: String = self.lines.iter().map(|l| format!("{l}\n")).collect();
        out.push_str(&format!(
            "benchdiff: {} workload(s) paired, {} incomparable: {} regression(s), \
             {} improvement(s), {} neutral\n",
            self.paired, self.incomparable, self.regressions, self.improvements, self.neutral,
        ));
        out
    }
}

/// Compares, per workload, the latest two builds of `records` under
/// `bounds`. A build is every untraced record with one label, in order
/// of the label's first appearance, judged by its medians; records of
/// the two builds from more than one host are `INCOMPARABLE`.
pub fn compare(records: &[Record], bounds: &[Bound]) -> DiffReport {
    let mut names: Vec<&str> = Vec::new();
    for r in records {
        if !names.contains(&r.stamp.workload.as_str()) {
            names.push(&r.stamp.workload);
        }
    }
    let mut report = DiffReport::default();
    for name in names {
        let mut builds: Vec<Vec<&Record>> = Vec::new();
        for r in records
            .iter()
            .filter(|r| r.stamp.workload == name && !r.stamp.traced)
        {
            match builds
                .iter_mut()
                .find(|b| b[0].stamp.label == r.stamp.label)
            {
                Some(b) => b.push(r),
                None => builds.push(vec![r]),
            }
        }
        let [.., prev, latest] = &builds[..] else {
            let n = builds.len();
            report
                .lines
                .push(format!("benchdiff: UNPAIRED workload={name} builds={n}"));
            continue;
        };
        report.paired += 1;
        let build = |b: &[&Record]| format!("'{}' ({} runs)", b[0].stamp.label, b.len());
        let host = &prev[0].stamp.host;
        if let Some(other) = prev.iter().chain(latest).find(|r| &r.stamp.host != host) {
            report.incomparable += 1;
            report.lines.push(format!(
                "benchdiff: INCOMPARABLE workload={name} {} vs {}: hosts {host} and {}",
                build(prev),
                build(latest),
                other.stamp.host
            ));
            continue;
        }
        report.lines.push(format!(
            "benchdiff: workload={name} {} vs {}, medians",
            build(prev),
            build(latest)
        ));
        report.judge(name, prev, latest, bounds);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"end_to_end":[
        {"name":"run_s","unit":"s","better":"lower","bound":0.25},
        {"name":"sat_throughput","unit":"fraction","better":"higher","bound":0.1}]}"#;

    fn host(model: &str) -> Host {
        Host {
            cpus: 2,
            cpu_model: model.into(),
        }
    }

    fn line(run_s: f64, sat: f64, failed: u64) -> String {
        format!(
            "{{\"correct\": true, \"attempted\": 10, \"failed\": {failed}, \"metrics\": \
             {{\"run_s\": {{\"value\": {run_s}, \"unit\": \"s\"}}, \
             \"sat_throughput\": {{\"value\": {sat}, \"unit\": \"fraction\"}}}}}}"
        )
    }

    fn stamp(workload: &str, label: &str, traced: bool, host: Host) -> Stamp {
        Stamp {
            ts_ms: 1,
            label: label.into(),
            workload: workload.into(),
            seed: 1,
            seconds: 30,
            traced,
            host,
        }
    }

    fn record(workload: &str, label: &str, traced: bool, host: Host, result: &str) -> String {
        render_record(&stamp(workload, label, traced, host), result).unwrap()
    }

    /// An untraced record on the default host.
    fn plain(workload: &str, label: &str, result: &str) -> String {
        record(workload, label, false, host("cpu"), result)
    }

    fn diff(lines: &[String]) -> DiffReport {
        let records = read_history(&lines.join("\n")).unwrap();
        compare(&records, &bounds_from_benchmark(SPEC).unwrap())
    }

    /// The verdicts on `workload`'s metrics, `(metric, verdict)`.
    fn verdicts(report: &DiffReport, workload: &str) -> Vec<(String, String)> {
        let tag = format!("workload={workload} metric=");
        let v: Vec<_> = report
            .lines
            .iter()
            .filter_map(|l| {
                let (head, rest) = l.split_once(&tag)?;
                let verdict = head.strip_prefix("benchdiff: ")?.trim();
                Some((rest.split(' ').next()?.to_string(), verdict.to_string()))
            })
            .collect();
        assert!(!v.is_empty(), "{workload} was not compared: {report:?}");
        v
    }

    fn verdict_of(report: &DiffReport, workload: &str, metric: &str) -> String {
        let v = verdicts(report, workload)
            .into_iter()
            .find(|(m, _)| m == metric);
        v.unwrap().1
    }

    #[test]
    fn records_round_trip_with_the_result_line_verbatim() {
        let res = line(2.5, 0.75, 0);
        let rec = plain("coral_sweep", "a", &res);
        assert!(rec.ends_with(&format!("\"result\":{res}}}")));
        let back = read_history(&format!("{rec}\n{rec}\n")).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].stamp, stamp("coral_sweep", "a", false, host("cpu")));
        assert_eq!(back[0].result.metric("run_s"), Some(2.5));
        assert_eq!(back[0].result.attempted, 10);
    }

    #[test]
    fn append_refuses_incorrect_and_mislabelled_results() {
        let untraced = stamp("coral_sweep", "a", false, host("cpu"));
        let wrong = line(1.0, 1.0, 0).replace("\"correct\": true", "\"correct\": false");
        assert!(render_record(&untraced, &wrong)
            .unwrap_err()
            .contains("correct"));
        let traced = stamp("coral_sweep", "a", true, host("cpu"));
        assert!(render_record(&traced, &line(1.0, 1.0, 0)).is_err());
        assert!(render_record(&untraced, "not json").is_err());
        assert_eq!(result_line("progress\n{\"a\":1}\n\n").unwrap(), "{\"a\":1}");
    }

    #[test]
    fn each_metric_is_judged_in_its_own_direction() {
        let base = plain("w", "a", &line(2.0, 0.8, 0));
        // run_s: lower is better, bound 25%; sat_throughput: higher is
        // better, bound 10%.
        for (run_s, sat, metric, verdict) in [
            (2.52, 0.8, "run_s", "REGRESSION"), // +26%
            (2.48, 0.8, "run_s", "NEUTRAL"),    // +24%
            (1.4, 0.8, "run_s", "IMPROVEMENT"),
            (2.0, 0.71, "sat_throughput", "REGRESSION"), // −11%
            (2.0, 0.89, "sat_throughput", "IMPROVEMENT"), // +11%
        ] {
            let r = diff(&[base.clone(), plain("w", "b", &line(run_s, sat, 0))]);
            assert_eq!(
                verdict_of(&r, "w", metric),
                verdict,
                "{metric}: {run_s} {sat}"
            );
            assert_eq!(r.regressions, usize::from(verdict == "REGRESSION"));
        }
        let text = diff(&[base, plain("w", "b", &line(2.0, 0.89, 0))]).render();
        assert!(text.contains("benchdiff: workload=w 'a' (1 runs) vs 'b' (1 runs), medians"));
        assert!(text.contains(
            "benchdiff: IMPROVEMENT workload=w metric=sat_throughput \
             prev=0.8 latest=0.89 worse_by=-11.2% bound=10%"
        ));
    }

    #[test]
    fn builds_are_judged_by_the_medians_of_their_records() {
        // One slow seed in each build does not move the medians.
        let r = diff(&[
            plain("w", "a", &line(2.0, 0.8, 0)),
            plain("w", "a", &line(2.1, 0.8, 0)),
            plain("w", "a", &line(9.0, 0.8, 0)),
            plain("w", "b", &line(2.05, 0.8, 0)),
            plain("w", "b", &line(3.0, 0.8, 0)),
            plain("w", "b", &line(2.0, 0.8, 0)),
        ]);
        assert_eq!(verdict_of(&r, "w", "run_s"), "NEUTRAL");
        assert!(r.render().contains("prev=2.1 latest=2.05"));
        // The latest build is compared with the one before it, even when
        // an older label is re-run afterwards.
        let r = diff(&[
            plain("w", "a", &line(9.0, 0.8, 0)),
            plain("w", "b", &line(2.0, 0.8, 0)),
            plain("w", "c", &line(2.0, 0.8, 0)),
            plain("w", "a", &line(9.0, 0.8, 0)),
        ]);
        assert_eq!(verdict_of(&r, "w", "run_s"), "NEUTRAL");
    }

    #[test]
    fn a_rise_in_the_failed_share_trips() {
        let r = diff(&[
            plain("w", "a", &line(2.0, 0.8, 0)),
            plain("w", "b", &line(2.0, 0.8, 1)),
        ]);
        assert_eq!(verdict_of(&r, "w", "failed_share"), "REGRESSION");
        assert_eq!(r.regressions, 1);
    }

    #[test]
    fn a_host_mismatch_is_incomparable_never_a_regression() {
        let r = diff(&[
            record("w", "a", false, host("cpu a"), &line(2.0, 0.8, 0)),
            record("w", "b", false, host("cpu b"), &line(9.0, 0.1, 5)),
        ]);
        assert_eq!((r.paired, r.incomparable, r.regressions), (1, 1, 0));
        assert!(r.render().contains(
            "benchdiff: INCOMPARABLE workload=w 'a' (1 runs) vs 'b' (1 runs): \
             hosts '2 cpus, cpu a' and '2 cpus, cpu b'"
        ));
    }

    #[test]
    fn workloads_never_cross_compare() {
        let r = diff(&[
            plain("x", "a", &line(1.0, 0.8, 0)),
            plain("y", "a", &line(9.0, 0.1, 0)),
            plain("x", "b", &line(1.1, 0.8, 0)),
        ]);
        assert_eq!((r.paired, r.regressions), (1, 0));
        assert_eq!(verdict_of(&r, "x", "run_s"), "NEUTRAL");
        assert!(r
            .lines
            .contains(&"benchdiff: UNPAIRED workload=y builds=1".to_string()));
    }

    #[test]
    fn traced_records_are_skipped() {
        let traced = "{\"correct\": true, \"attempted\": 10, \"failed\": 9, \"metrics\": \
                      {\"run_s_traced\": {\"value\": 50.0, \"unit\": \"s\"}}}";
        let r = diff(&[
            plain("w", "a", &line(2.0, 0.8, 0)),
            record("w", "b", true, host("cpu"), traced),
            plain("w", "b", &line(2.1, 0.8, 0)),
            record("w", "c", true, host("other"), traced),
        ]);
        assert!(verdicts(&r, "w").iter().all(|(_, v)| v == "NEUTRAL"));
    }

    #[test]
    fn a_torn_tail_is_tolerated_but_inner_corruption_errors() {
        let a = plain("w", "a", &line(2.0, 0.8, 0));
        let torn = format!("{a}\n{a}\n{}", &a[..a.len() / 2]);
        assert_eq!(read_history(&torn).unwrap().len(), 2);
        let inner = format!("{}\n{a}\n", &a[..a.len() / 2]);
        assert!(read_history(&inner).is_err());
    }

    #[test]
    fn bounds_come_from_the_benchmark_spec() {
        let b = bounds_from_benchmark(SPEC).unwrap();
        assert_eq!(b.len(), 2);
        assert!(!b[0].higher_is_better && b[0].bound == 0.25);
        assert!(b[1].higher_is_better && b[1].bound == 0.1);
        assert!(
            bounds_from_benchmark(r#"{"end_to_end":[{"name":"x","better":"up","bound":1}]}"#)
                .is_err()
        );
    }
}
