//! Supervised run orchestration: one request in, one durable manifest
//! out.
//!
//! This is the layer the batch service (`examples/d2net-serve`) and the
//! resume path share: it parses a sweep request, derives the run's
//! content key, replays the point journal, runs the supervised sweep
//! (see `d2net_sim::supervise`), journals completions as they land, and
//! assembles a [`RunManifest`] whose bytes are identical whether the
//! run went straight through or was killed and resumed — the
//! `"supervision"` section being the one deliberate, strippable
//! difference.

use crate::experiment::Curve;
use crate::journal::{fnv1a, JournalReplay, PointJournal};
use crate::report::{RunManifest, SupervisionManifest};
use d2net_analysis::algorithm_label;
use d2net_routing::{Algorithm, RoutePolicy};
use d2net_sim::{
    load_grid, supervised_sweep, Observers, SimConfig, SuperviseConfig, SuperviseHooks,
    SupervisionSummary,
};
use d2net_topo::{mlfm, oft, slim_fly, Network, SlimFlyP};
use d2net_traffic::{worst_case, SyntheticPattern};
use std::path::Path;

/// A parsed sweep request — everything that determines the simulated
/// result, plus the supervisor policy (which does not).
pub struct SupervisedRequest {
    /// Request id; becomes the manifest title and names the outputs.
    pub id: String,
    /// Topology spec string the request named (kept for the run key).
    pub topology_spec: String,
    pub net: Network,
    pub algorithm: Algorithm,
    /// Pattern spec string the request named (kept for the run key).
    pub pattern_spec: String,
    pub loads: Vec<f64>,
    pub duration_ns: u64,
    pub warmup_ns: u64,
    pub cfg: SimConfig,
    pub sup: SuperviseConfig,
}

/// Builds a [`Network`] from the request grammar `name:size`
/// (`slim_fly:5`, `mlfm:4`, `oft:4`).
pub fn parse_topology(spec: &str) -> Result<Network, String> {
    let (name, size) = spec
        .split_once(':')
        .ok_or_else(|| format!("topology '{spec}' is not name:size"))?;
    let size: u64 = size
        .parse()
        .map_err(|_| format!("topology size '{size}' is not an integer"))?;
    match name {
        "slim_fly" => Ok(slim_fly(size, SlimFlyP::Floor)),
        "mlfm" => Ok(mlfm(size)),
        "oft" => Ok(oft(size)),
        other => Err(format!(
            "unknown topology '{other}' (want slim_fly|mlfm|oft)"
        )),
    }
}

/// Parses the request's algorithm name (`minimal`, `valiant`, `ugal`).
pub fn parse_algorithm(name: &str) -> Result<Algorithm, String> {
    match name {
        "minimal" => Ok(Algorithm::Minimal),
        "valiant" => Ok(Algorithm::Valiant),
        "ugal" => Ok(Algorithm::Ugal {
            n_i: 4,
            c: 2.0,
            threshold: None,
        }),
        other => Err(format!(
            "unknown algorithm '{other}' (want minimal|valiant|ugal)"
        )),
    }
}

/// Parses the request's pattern name (`uniform`, `worst_case`) against
/// the already-built network.
pub fn parse_pattern(name: &str, net: &Network) -> Result<SyntheticPattern, String> {
    match name {
        "uniform" => Ok(SyntheticPattern::Uniform),
        "worst_case" => Ok(worst_case(net)),
        other => Err(format!("unknown pattern '{other}' (want uniform|worst_case)")),
    }
}

impl SupervisedRequest {
    /// Parses a spooled request document:
    ///
    /// ```json
    /// {"id": "req-a", "topology": "slim_fly:5", "algorithm": "minimal",
    ///  "pattern": "uniform", "steps": 8, "duration_ns": 20000,
    ///  "warmup_ns": 4000, "seed": 123, "max_retries": 2,
    ///  "budget_wall_ms": 0, "budget_events": 0}
    /// ```
    ///
    /// `steps` (a [`load_grid`] resolution) may be replaced by an
    /// explicit `"loads": [..]` array; `seed`, the budgets and
    /// `max_retries` are optional.
    pub fn from_json(text: &str) -> Result<Self, String> {
        use crate::compare::Json;
        let doc = Json::parse(text)?;
        let str_field = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("request is missing string field '{key}'"))
        };
        let u64_field = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("request is missing integer field '{key}'"))
        };
        let id = str_field("id")?;
        if id.is_empty() || !id.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_') {
            return Err(format!("request id '{id}' must be [A-Za-z0-9_-]+"));
        }
        let topology_spec = str_field("topology")?;
        let net = parse_topology(&topology_spec)?;
        let algorithm = parse_algorithm(&str_field("algorithm")?)?;
        let pattern_spec = str_field("pattern")?;
        parse_pattern(&pattern_spec, &net)?;
        let loads = match doc.get("loads").and_then(Json::as_array) {
            Some(arr) => {
                let loads: Option<Vec<f64>> = arr.iter().map(Json::as_f64).collect();
                loads.ok_or("'loads' must be an array of numbers")?
            }
            None => {
                let steps = u64_field("steps")? as usize;
                if !(2..=200).contains(&steps) {
                    return Err(format!("steps {steps} outside [2, 200]"));
                }
                load_grid(steps)
            }
        };
        if loads.is_empty() || loads.iter().any(|&l| !(0.0..=1.0).contains(&l) || l <= 0.0) {
            return Err("loads must be non-empty fractions in (0, 1]".into());
        }
        let mut cfg = SimConfig::default();
        if let Some(seed) = doc.get("seed").and_then(Json::as_u64) {
            cfg.seed = seed;
        }
        if let Some(ev) = doc.get("budget_events").and_then(Json::as_u64) {
            cfg.budget.max_events = ev;
        }
        if let Some(ms) = doc.get("budget_wall_ms").and_then(Json::as_u64) {
            cfg.budget.max_wall_ms = ms;
        }
        let mut sup = SuperviseConfig {
            chaos: d2net_sim::ChaosConfig::from_env(),
            ..SuperviseConfig::default()
        };
        if let Some(r) = doc.get("max_retries").and_then(Json::as_u64) {
            sup.max_retries = r as u32;
        }
        Ok(SupervisedRequest {
            id,
            topology_spec,
            net,
            algorithm,
            pattern_spec,
            loads,
            duration_ns: u64_field("duration_ns")?,
            warmup_ns: u64_field("warmup_ns")?,
            cfg,
            sup,
        })
    }

    /// Content hash of everything that determines simulated results —
    /// the journal's staleness check. Supervisor policy (budgets,
    /// chaos, retries, threads) is deliberately excluded: it never
    /// changes a completed point's stats, so tightening a budget must
    /// not invalidate a half-finished journal.
    pub fn run_key(&self) -> u64 {
        let mut ident = format!(
            "{}|{}|{}|{}|{}|{}|{:?}|{}|{}|{}|{}|{}",
            self.topology_spec,
            algorithm_label(self.algorithm),
            self.pattern_spec,
            self.duration_ns,
            self.warmup_ns,
            self.cfg.seed,
            self.cfg.arrival,
            self.cfg.link_bandwidth_gbps,
            self.cfg.link_latency_ns,
            self.cfg.switch_latency_ns,
            self.cfg.buffer_bytes,
            self.cfg.packet_bytes,
        );
        for l in &self.loads {
            ident.push_str(&format!("|{l:.6}"));
        }
        fnv1a(ident.as_bytes())
    }
}

/// A supervised run's deliverables.
pub struct SupervisedRun {
    /// The assembled manifest (supervision section set when
    /// non-trivial).
    pub manifest: RunManifest,
    pub summary: SupervisionManifest,
    /// False when the stop signal cut the sweep short — the journal
    /// holds the completed prefix and a rerun resumes it.
    pub finished: bool,
}

/// Runs one supervised request end to end. `journal_path` arms durable
/// checkpoint/resume; `stop` is polled between points for graceful
/// drains (deadlines, SIGTERM).
pub fn run_supervised(
    req: &SupervisedRequest,
    journal_path: Option<&Path>,
    stop: Option<&(dyn Fn() -> bool + Sync)>,
) -> std::io::Result<SupervisedRun> {
    let policy = RoutePolicy::new(&req.net, req.algorithm);
    let pattern = parse_pattern(&req.pattern_spec, &req.net).expect("validated at parse time");
    let (journal, replay) = match journal_path {
        Some(path) => {
            let (j, r) = PointJournal::open(path, req.run_key(), req.loads.len())?;
            (Some(j), r)
        }
        None => (
            None,
            JournalReplay {
                prefilled: vec![None; req.loads.len()],
                lines_skipped: 0,
                matched: false,
            },
        ),
    };
    if replay.matched {
        let replayed = replay.prefilled.iter().filter(|p| p.is_some()).count();
        if replayed > 0 && crate::obs::enabled() {
            crate::obs::emit(
                crate::obs::Level::Info,
                "journal_resume",
                format!(
                    "request {}: resuming {replayed} journaled point(s), \
                     {} torn line(s) skipped",
                    req.id, replay.lines_skipped
                ),
                vec![
                    ("id", req.id.as_str().into()),
                    ("replayed", replayed.into()),
                    ("lines_skipped", replay.lines_skipped.into()),
                ],
            );
        }
    }
    let on_point = |idx: usize, stats: &d2net_sim::SyntheticStats| {
        if let Some(j) = &journal {
            if let Err(e) = j.append(idx, stats) {
                crate::obs::warn_line(
                    "journal_append",
                    &format!("d2net: WARN JOURNAL_APPEND point {idx} not journaled: {e}"),
                );
            }
        }
    };
    let hooks = SuperviseHooks {
        prefilled: replay.matched.then_some(replay.prefilled.as_slice()),
        stop,
        on_point: Some(&on_point),
    };
    let result = supervised_sweep(
        &req.net,
        &policy,
        &pattern,
        &req.loads,
        req.duration_ns,
        req.warmup_ns,
        req.cfg,
        Observers::default(),
        &req.sup,
        &hooks,
    );
    let summary = supervision_manifest(&result.summary, replay.lines_skipped);
    let mut manifest = RunManifest::new(
        &req.id,
        &req.net,
        algorithm_label(req.algorithm).to_uppercase(),
        &req.pattern_spec,
        req.duration_ns,
        req.warmup_ns,
        req.cfg,
    );
    manifest.set_algorithm(req.algorithm);
    manifest.push_notices(&result.outcome.notices);
    manifest.push_curve(Curve {
        label: format!(
            "{} {}",
            algorithm_label(req.algorithm).to_uppercase(),
            req.pattern_spec
        ),
        points: result.outcome.points,
    });
    manifest.set_supervision(summary);
    Ok(SupervisedRun {
        manifest,
        finished: result.summary.not_run == 0,
        summary,
    })
}

/// Folds the sim-side supervision counts and the journal replay record
/// into the manifest's `"supervision"` section.
pub fn supervision_manifest(
    summary: &SupervisionSummary,
    journal_lines_skipped: u32,
) -> SupervisionManifest {
    SupervisionManifest {
        completed: summary.completed as u32,
        retried: summary.retried as u32,
        exhausted: summary.exhausted as u32,
        panicked: summary.panicked as u32,
        skipped_by_resume: summary.skipped_by_resume as u32,
        not_run: summary.not_run as u32,
        journal_lines_skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_json(id: &str, steps: usize) -> String {
        format!(
            "{{\"id\":\"{id}\",\"topology\":\"slim_fly:5\",\"algorithm\":\"minimal\",\
             \"pattern\":\"uniform\",\"steps\":{steps},\"duration_ns\":6000,\
             \"warmup_ns\":1000,\"seed\":7}}"
        )
    }

    #[test]
    fn request_parses_and_rejects_garbage() {
        let req = SupervisedRequest::from_json(&request_json("req-a", 4)).unwrap();
        assert_eq!(req.id, "req-a");
        assert_eq!(req.loads.len(), 4);
        assert_eq!(req.cfg.seed, 7);

        assert!(SupervisedRequest::from_json("{}").is_err());
        assert!(SupervisedRequest::from_json("not json").is_err());
        let bad_id = request_json("../escape", 4);
        assert!(SupervisedRequest::from_json(&bad_id).is_err());
        let bad_topo = request_json("ok", 4).replace("slim_fly:5", "frob:9");
        assert!(SupervisedRequest::from_json(&bad_topo).is_err());
    }

    #[test]
    fn run_key_tracks_results_not_supervision_policy() {
        let a = SupervisedRequest::from_json(&request_json("req-a", 4)).unwrap();
        let mut b = SupervisedRequest::from_json(&request_json("req-a", 4)).unwrap();
        assert_eq!(a.run_key(), b.run_key());
        // Supervision knobs must not invalidate journals...
        b.sup.max_retries = 9;
        b.cfg.budget.max_wall_ms = 5;
        assert_eq!(a.run_key(), b.run_key());
        // ...but anything result-bearing must.
        b.cfg.seed ^= 1;
        assert_ne!(a.run_key(), b.run_key());
        let c = SupervisedRequest::from_json(&request_json("req-a", 5)).unwrap();
        assert_ne!(a.run_key(), c.run_key());
    }

    #[test]
    fn supervised_run_without_journal_matches_rerun() {
        let req = SupervisedRequest::from_json(&request_json("req-a", 3)).unwrap();
        let a = run_supervised(&req, None, None).unwrap();
        let b = run_supervised(&req, None, None).unwrap();
        assert!(a.finished && b.finished);
        assert_eq!(a.manifest.to_json(), b.manifest.to_json());
        assert!(a.summary.is_trivial());
    }

    #[test]
    fn journaled_run_resumes_to_byte_identical_manifest() {
        let dir = std::env::temp_dir().join("d2net_supervise_resume_test");
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("req-a.journal");
        let _ = std::fs::remove_file(&journal);
        let req = SupervisedRequest::from_json(&request_json("req-a", 4)).unwrap();

        // Uninterrupted baseline (no journal involved at all).
        let clean = run_supervised(&req, None, None).unwrap();

        // First attempt: single-threaded, stopping once the journal
        // holds two completed points (header + 2 lines).
        {
            let mut req1 = SupervisedRequest::from_json(&request_json("req-a", 4)).unwrap();
            req1.sup.threads = 1;
            let journal_path = journal.clone();
            let stop_by_journal = move || {
                std::fs::read_to_string(&journal_path)
                    .map(|t| t.lines().count() >= 3)
                    .unwrap_or(false)
            };
            let partial = run_supervised(&req1, Some(&journal), Some(&stop_by_journal)).unwrap();
            assert!(!partial.finished, "stop must cut the sweep short");
            assert!(partial.summary.not_run > 0);
        }

        // Second attempt resumes the journal and must finish.
        let resumed = run_supervised(&req, Some(&journal), None).unwrap();
        assert!(resumed.finished);
        assert!(resumed.summary.skipped_by_resume >= 2);

        // Byte-identical modulo the supervision section.
        // Same strip the serve-smoke CI gate applies:
        // `"supervision":{...},` (the section plus its trailing comma —
        // "curves" always follows it).
        let strip = |s: &str| {
            let start = s.find("\"supervision\":{").expect("section present");
            let mut end = s[start..].find('}').unwrap() + start + 1;
            if s.as_bytes().get(end) == Some(&b',') {
                end += 1;
            }
            let mut out = s.to_string();
            out.replace_range(start..end, "");
            out
        };
        let clean_json = clean.manifest.to_json();
        let resumed_json = resumed.manifest.to_json();
        assert!(!clean_json.contains("supervision"));
        assert_eq!(strip(&resumed_json), clean_json);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
