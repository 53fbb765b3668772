//! Cross-run manifest diffing — the analysis half of the routing
//! forensics: load two [`RunManifest`](crate::report::RunManifest) JSON
//! documents (typically UGAL-L and UGAL-G over the same load grid) and
//! report where and *why* their routing decisions diverged.
//!
//! The diff walks the manifests' `"decisions"` sections: the first load
//! point whose misroute rates disagree, the per-source-router misroute
//! deltas at that point, and the sampled decision records behind the
//! largest divergence margins on each side. When the two runs are the
//! local and global UGAL variants, the report attributes the divergence
//! to UGAL-L's first-hop-only cost visibility (paper §3.3): whole-path
//! congestion past hop 1 is invisible to the local cost function, so
//! its verdicts hold minimal where UGAL-G diverts.
//!
//! The JSON parser here is the same minimal recursive descent the test
//! suite uses (the workspace carries no serde), promoted to library
//! code so the `d2net-compare` CLI and the tests share one reader.

use crate::report::JsonWriter;
use d2net_sim::LEDGER_TOP_N;

// ----- minimal JSON reader ------------------------------------------

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so an unbounded `[[[…` document would
/// overflow the stack — an abort no caller can catch. Every document the
/// workspace writes nests fewer than ten levels.
pub const MAX_JSON_DEPTH: usize = 128;

/// A parsed JSON value. Objects preserve key order; numbers collapse to
/// `f64` (every number a manifest emits is exactly representable).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    String(String),
    Number(f64),
    Bool(bool),
    Null,
}

impl Json {
    /// Parses a complete JSON document (RFC 8259 grammar; rejects
    /// trailing bytes and nesting deeper than [`MAX_JSON_DEPTH`]).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.s.len() {
            return Err(format!("trailing bytes at {}", p.pos));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().map(|n| n as u64)
    }
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.s.len() && matches!(self.s[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.s
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek()? != c {
            return Err(format!("expected {:?} at byte {}", c as char, self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            c @ (b'{' | b'[') => {
                if self.depth == MAX_JSON_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_JSON_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if c == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            b'"' => Ok(Json::String(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(format!("unexpected byte {:?} at {}", c as char, self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.s[self.pos] == b'-' {
            self.pos += 1;
        }
        while self.pos < self.s.len()
            && matches!(self.s[self.pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.s[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.s.get(self.pos).copied().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.s.get(self.pos).copied().ok_or("bad escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).ok_or("bad \\u code point")?);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                c if c < 0x20 => return Err("raw control char in string".into()),
                _ => {
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.s.len() && self.s[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.s[start..self.pos]).map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                c => return Err(format!("expected ',' or '}}', got {:?}", c as char)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                c => return Err(format!("expected ',' or ']', got {:?}", c as char)),
            }
        }
    }
}

// ----- manifest digestion -------------------------------------------

/// One sampled decision record, as read back from a manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleDigest {
    pub flight_id: u64,
    pub t_ps: u64,
    pub src: u32,
    pub dst: u32,
    pub verdict: String,
    pub q_m: u64,
    pub c_m: f64,
    pub chosen_cost: f64,
    pub margin: f64,
    pub candidates: usize,
}

/// One ledgered load point, as read back from a manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct PointDigest {
    pub index: u64,
    pub load: f64,
    pub decisions: u64,
    pub misroutes: u64,
    pub misroute_rate: f64,
    pub throughput: f64,
    pub avg_delay_ns: f64,
    /// `(router, decisions, misroutes)` rows, ascending router id.
    pub routers: Vec<(u32, u64, u64)>,
    /// Samples in manifest order (largest |margin| first).
    pub samples: Vec<SampleDigest>,
}

/// The `"analysis"` section of a manifest, as read back for diffing:
/// the static oracle's saturation envelope and (when a sweep was
/// cross-checked) the divergence verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisDigest {
    /// Rows in the `"predictions"` array.
    pub predictions: usize,
    /// Lowest `predicted_saturation` across the rows.
    pub saturation_lo: f64,
    /// Highest `predicted_saturation` across the rows.
    pub saturation_hi: f64,
    /// `"measured_saturation"` of the divergence verdict, when present.
    pub measured_saturation: Option<f64>,
    /// `"passed"` of the divergence verdict, when present.
    pub divergence_passed: Option<bool>,
}

/// What [`compare_manifests`] needs from one run manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDigest {
    pub title: String,
    pub routing: String,
    /// `"kind"` of the manifest's `"algorithm"` section, when present.
    pub algorithm_kind: Option<String>,
    /// The `"analysis"` section, when the campaign ran the oracle.
    pub analysis: Option<AnalysisDigest>,
    pub points: Vec<PointDigest>,
}

fn need<'a>(v: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("{ctx}: missing \"{key}\""))
}

/// Digests a parsed run manifest into the comparison view. Fails with a
/// description when the manifest carries neither a `"decisions"` nor an
/// `"analysis"` section (a run with no ledger and no oracle pass has
/// nothing to diff); an analysis-only manifest digests with no points.
pub fn digest_manifest(doc: &Json, ctx: &str) -> Result<RunDigest, String> {
    let title = need(doc, "title", ctx)?.as_str().unwrap_or("?").to_string();
    let routing = need(doc, "routing", ctx)?.as_str().unwrap_or("?").to_string();
    let algorithm_kind = doc
        .get("algorithm")
        .and_then(|a| a.get("kind"))
        .and_then(|k| k.as_str())
        .map(str::to_string);
    let decisions = doc.get("decisions");
    if decisions.is_none() && doc.get("analysis").is_none() {
        return Err(format!(
            "{ctx}: no \"decisions\" or \"analysis\" section — rerun the campaign \
             with the ledger enabled or the oracle attached"
        ));
    }
    let analysis = doc.get("analysis").map(|a| {
        let sats: Vec<f64> = a
            .get("predictions")
            .and_then(|p| p.as_array())
            .map(|rows| {
                rows.iter()
                    .filter_map(|r| r.get("predicted_saturation").and_then(|s| s.as_f64()))
                    .collect()
            })
            .unwrap_or_default();
        let divergence = a.get("divergence").filter(|d| **d != Json::Null);
        AnalysisDigest {
            predictions: sats.len(),
            saturation_lo: sats.iter().copied().fold(f64::INFINITY, f64::min),
            saturation_hi: sats.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            measured_saturation: divergence
                .and_then(|d| d.get("measured_saturation"))
                .and_then(|m| m.as_f64()),
            divergence_passed: divergence.and_then(|d| d.get("passed")).and_then(|p| match p {
                Json::Bool(b) => Some(*b),
                _ => None,
            }),
        }
    });

    // Curve points are indexed by grid position, same as ledger points.
    let curve_points: Vec<&Json> = doc
        .get("curves")
        .and_then(|c| c.as_array())
        .and_then(|c| c.first())
        .and_then(|c| c.get("points"))
        .and_then(|p| p.as_array())
        .map(|p| p.iter().collect())
        .unwrap_or_default();

    let ledger_points = match decisions {
        Some(d) => need(d, "points", ctx)?.as_array().unwrap_or(&[]),
        None => &[],
    };
    let mut points = Vec::new();
    for p in ledger_points {
        let index = need(p, "index", ctx)?.as_u64().unwrap_or(0);
        let curve = curve_points.get(index as usize);
        let mut routers = Vec::new();
        for r in need(p, "routers", ctx)?.as_array().unwrap_or(&[]) {
            routers.push((
                need(r, "router", ctx)?.as_u64().unwrap_or(0) as u32,
                need(r, "decisions", ctx)?.as_u64().unwrap_or(0),
                need(r, "misroutes", ctx)?.as_u64().unwrap_or(0),
            ));
        }
        let mut samples = Vec::new();
        for s in need(p, "samples", ctx)?.as_array().unwrap_or(&[]) {
            samples.push(SampleDigest {
                flight_id: need(s, "flight_id", ctx)?.as_u64().unwrap_or(0),
                t_ps: need(s, "t_ps", ctx)?.as_u64().unwrap_or(0),
                src: need(s, "src", ctx)?.as_u64().unwrap_or(0) as u32,
                dst: need(s, "dst", ctx)?.as_u64().unwrap_or(0) as u32,
                verdict: need(s, "verdict", ctx)?.as_str().unwrap_or("?").to_string(),
                q_m: need(s, "q_m", ctx)?.as_u64().unwrap_or(0),
                c_m: need(s, "c_m", ctx)?.as_f64().unwrap_or(0.0),
                chosen_cost: need(s, "chosen_cost", ctx)?.as_f64().unwrap_or(0.0),
                margin: need(s, "margin", ctx)?.as_f64().unwrap_or(0.0),
                candidates: s
                    .get("candidates")
                    .and_then(|c| c.as_array())
                    .map_or(0, |c| c.len()),
            });
        }
        points.push(PointDigest {
            index,
            load: need(p, "load", ctx)?.as_f64().unwrap_or(0.0),
            decisions: need(p, "decisions", ctx)?.as_u64().unwrap_or(0),
            misroutes: need(p, "misroutes", ctx)?.as_u64().unwrap_or(0),
            misroute_rate: need(p, "misroute_rate", ctx)?.as_f64().unwrap_or(0.0),
            throughput: curve
                .and_then(|c| c.get("throughput"))
                .and_then(|t| t.as_f64())
                .unwrap_or(f64::NAN),
            avg_delay_ns: curve
                .and_then(|c| c.get("avg_delay_ns"))
                .and_then(|t| t.as_f64())
                .unwrap_or(f64::NAN),
            routers,
            samples,
        });
    }
    Ok(RunDigest {
        title,
        routing,
        algorithm_kind,
        analysis,
        points,
    })
}

// ----- the diff -----------------------------------------------------

/// Misroute-rate gap below which two points count as agreeing.
pub const DIVERGENCE_EPS: f64 = 0.005;

/// The first load point where the two runs' routing behavior parted.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    pub load: f64,
    pub rate_a: f64,
    pub rate_b: f64,
    /// `(router, misroutes_a, misroutes_b)` at this point, ordered by
    /// |delta| descending (capped at [`LEDGER_TOP_N`] rows).
    pub router_deltas: Vec<(u32, u64, u64)>,
    /// Largest-|margin| sampled decisions from each side.
    pub samples_a: Vec<SampleDigest>,
    pub samples_b: Vec<SampleDigest>,
}

/// Outcome of diffing two ledgered run manifests.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    pub a: RunDigest,
    pub b: RunDigest,
    /// Loads both runs simulated, in grid order.
    pub compared_loads: Vec<f64>,
    pub first_divergence: Option<Divergence>,
    /// Set when the algorithm pair explains the divergence structurally
    /// (UGAL-L vs UGAL-G → hop-2 blindness).
    pub attribution: Option<String>,
}

/// Diffs two run-manifest JSON documents. Each must carry a
/// `"decisions"` or `"analysis"` section; ledger points are matched by
/// grid index and must agree on load, while an analysis-only pair
/// reports just the two saturation envelopes.
pub fn compare_manifests(a_text: &str, b_text: &str) -> Result<CompareReport, String> {
    let a = digest_manifest(&Json::parse(a_text).map_err(|e| format!("manifest A: {e}"))?, "A")?;
    let b = digest_manifest(&Json::parse(b_text).map_err(|e| format!("manifest B: {e}"))?, "B")?;

    let mut compared_loads = Vec::new();
    let mut first_divergence = None;
    for pa in &a.points {
        let Some(pb) = b.points.iter().find(|p| p.index == pa.index) else {
            continue;
        };
        if (pa.load - pb.load).abs() > 1e-9 {
            return Err(format!(
                "load grids differ at index {}: {} vs {}",
                pa.index, pa.load, pb.load
            ));
        }
        compared_loads.push(pa.load);
        if first_divergence.is_none() && (pa.misroute_rate - pb.misroute_rate).abs() > DIVERGENCE_EPS
        {
            let mut routers: Vec<(u32, u64, u64)> = Vec::new();
            for &(r, _, mis) in &pa.routers {
                routers.push((r, mis, 0));
            }
            for &(r, _, mis) in &pb.routers {
                match routers.iter_mut().find(|(id, _, _)| *id == r) {
                    Some(row) => row.2 = mis,
                    None => routers.push((r, 0, mis)),
                }
            }
            routers.sort_by(|x, y| {
                let dx = x.1.abs_diff(x.2);
                let dy = y.1.abs_diff(y.2);
                dy.cmp(&dx).then(x.0.cmp(&y.0))
            });
            routers.truncate(LEDGER_TOP_N);
            first_divergence = Some(Divergence {
                load: pa.load,
                rate_a: pa.misroute_rate,
                rate_b: pb.misroute_rate,
                router_deltas: routers,
                samples_a: pa.samples.iter().take(3).cloned().collect(),
                samples_b: pb.samples.iter().take(3).cloned().collect(),
            });
        }
    }
    // An analysis-only pair has no ledger points to match; the report
    // then carries just the two envelope lines. Anything else with no
    // overlap is a grid mismatch and stays an error.
    let analysis_only =
        a.points.is_empty() && b.points.is_empty() && a.analysis.is_some() && b.analysis.is_some();
    if compared_loads.is_empty() && !analysis_only {
        return Err("no common load points between the two manifests".into());
    }

    let attribution = match (&first_divergence, a.algorithm_kind.as_deref(), b.algorithm_kind.as_deref()) {
        (Some(d), Some(ka), Some(kb)) if (ka, kb) == ("ugal", "ugal_g") || (ka, kb) == ("ugal_g", "ugal") => {
            let (local, global, rl, rg) = if ka == "ugal" {
                (&a.title, &b.title, d.rate_a, d.rate_b)
            } else {
                (&b.title, &a.title, d.rate_b, d.rate_a)
            };
            Some(format!(
                "UGAL-L ({local}) costs candidates by first-hop occupancy only — \
                 first-hop-only cost visibility leaves congestion at hop 2+ \
                 invisible to its cost function (paper \u{a7}3.3), while UGAL-G \
                 ({global}) sums whole-path occupancies. At load {:.3} the local \
                 variant misroutes {:.4} of decisions against the global \
                 variant's {:.4}; the per-router deltas and sampled records \
                 above show which sources held minimal verdicts on paths whose \
                 downstream queues the local cost never saw.",
                d.load, rl, rg
            ))
        }
        _ => None,
    };

    Ok(CompareReport {
        a,
        b,
        compared_loads,
        first_divergence,
        attribution,
    })
}

fn push_samples(out: &mut String, label: &str, samples: &[SampleDigest]) {
    out.push_str(&format!("  largest-gap ledger entries, {label}:\n"));
    if samples.is_empty() {
        out.push_str("    (no sampled records at this point)\n");
    }
    for s in samples {
        out.push_str(&format!(
            "    flight {:>6} @ {:>10} ps: {:>14} {:>3}->{:<3} q_m={:<7} c_m={:<10.1} \
             chosen={:<10.1} margin={:<10.1} candidates={}\n",
            s.flight_id, s.t_ps, s.verdict, s.src, s.dst, s.q_m, s.c_m, s.chosen_cost, s.margin,
            s.candidates
        ));
    }
}

impl CompareReport {
    /// Renders the diff as a plain-text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "d2net-compare: \"{}\" [{}] vs \"{}\" [{}]\n",
            self.a.title, self.a.routing, self.b.title, self.b.routing
        ));
        out.push_str(&format!(
            "  algorithms: {} vs {}\n",
            self.a.algorithm_kind.as_deref().unwrap_or("(unrecorded)"),
            self.b.algorithm_kind.as_deref().unwrap_or("(unrecorded)"),
        ));
        for (label, run) in [("A", &self.a), ("B", &self.b)] {
            if let Some(an) = &run.analysis {
                out.push_str(&format!(
                    "  static analysis {label}: saturation envelope [{:.3}, {:.3}] over {} predictions",
                    an.saturation_lo, an.saturation_hi, an.predictions
                ));
                if let Some(m) = an.measured_saturation {
                    out.push_str(&format!(
                        ", measured {:.3} ({})",
                        m,
                        match an.divergence_passed {
                            Some(true) => "gate passed",
                            Some(false) => "GATE FAILED",
                            None => "no verdict",
                        }
                    ));
                }
                out.push('\n');
            }
        }
        if self.compared_loads.is_empty() {
            out.push_str(
                "  no decision ledgers to diff — static analysis sections only\n",
            );
            if let Some(attr) = &self.attribution {
                out.push_str(&format!("\n  attribution: {attr}\n"));
            }
            return out;
        }
        out.push_str(&format!(
            "  compared {} common load points ({:.3} .. {:.3})\n\n",
            self.compared_loads.len(),
            self.compared_loads.first().copied().unwrap_or(0.0),
            self.compared_loads.last().copied().unwrap_or(0.0),
        ));

        out.push_str("  load  | misroute A | misroute B | delta      | thr A   | thr B\n");
        out.push_str("  ------+------------+------------+------------+---------+--------\n");
        for pa in &self.a.points {
            let Some(pb) = self.b.points.iter().find(|p| p.index == pa.index) else {
                continue;
            };
            out.push_str(&format!(
                "  {:5.3} | {:10.4} | {:10.4} | {:+10.4} | {:7.4} | {:7.4}{}\n",
                pa.load,
                pa.misroute_rate,
                pb.misroute_rate,
                pb.misroute_rate - pa.misroute_rate,
                pa.throughput,
                pb.throughput,
                if (pa.misroute_rate - pb.misroute_rate).abs() > DIVERGENCE_EPS {
                    "  <- diverged"
                } else {
                    ""
                }
            ));
        }
        out.push('\n');

        match &self.first_divergence {
            None => out.push_str(&format!(
                "  no divergence: misroute rates agree within {DIVERGENCE_EPS} at every common load point\n"
            )),
            Some(d) => {
                out.push_str(&format!(
                    "  first divergence at load {:.3}: misroute rate {:.4} (A) vs {:.4} (B)\n",
                    d.load, d.rate_a, d.rate_b
                ));
                out.push_str("  per-router misroute deltas at that point (largest first):\n");
                for &(r, ma, mb) in &d.router_deltas {
                    out.push_str(&format!(
                        "    router {r:>4}: A {ma:>8}  B {mb:>8}  delta {:+}\n",
                        mb as i64 - ma as i64
                    ));
                }
                push_samples(&mut out, "A", &d.samples_a);
                push_samples(&mut out, "B", &d.samples_b);
            }
        }
        if let Some(attr) = &self.attribution {
            out.push_str(&format!("\n  attribution: {attr}\n"));
        }
        out
    }

    /// Serializes the diff as a small JSON document (for tooling).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema").string("d2net.compare/v1");
        w.key("a").string(&self.a.title);
        w.key("b").string(&self.b.title);
        w.key("compared_loads").begin_array();
        for &l in &self.compared_loads {
            w.f64(l);
        }
        w.end_array();
        w.key("first_divergence");
        match &self.first_divergence {
            None => {
                w.null();
            }
            Some(d) => {
                w.begin_object();
                w.key("load").f64(d.load);
                w.key("misroute_rate_a").f64(d.rate_a);
                w.key("misroute_rate_b").f64(d.rate_b);
                w.key("router_deltas").begin_array();
                for &(r, ma, mb) in &d.router_deltas {
                    w.begin_object();
                    w.key("router").u64(r as u64);
                    w.key("misroutes_a").u64(ma);
                    w.key("misroutes_b").u64(mb);
                    w.end_object();
                }
                w.end_array();
                w.end_object();
            }
        }
        for (key, run) in [("analysis_a", &self.a), ("analysis_b", &self.b)] {
            w.key(key);
            match &run.analysis {
                None => {
                    w.null();
                }
                Some(an) => {
                    w.begin_object();
                    w.key("predictions").u64(an.predictions as u64);
                    w.key("saturation_lo").f64(an.saturation_lo);
                    w.key("saturation_hi").f64(an.saturation_hi);
                    w.key("measured_saturation");
                    match an.measured_saturation {
                        Some(m) => {
                            w.f64(m);
                        }
                        None => {
                            w.null();
                        }
                    }
                    w.key("divergence_passed");
                    match an.divergence_passed {
                        Some(p) => {
                            w.bool(p);
                        }
                        None => {
                            w.null();
                        }
                    }
                    w.end_object();
                }
            }
        }
        w.key("attributed").bool(self.attribution.is_some());
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(title: &str, kind: &str, rate_low: f64, rate_high: f64) -> String {
        // Hand-built minimal manifest with two ledgered points; only the
        // fields the digester reads.
        format!(
            r#"{{"schema":"d2net.run-manifest/v1","title":"{title}","routing":"{title}",
            "algorithm":{{"kind":"{kind}","n_i":2,"c":2.000000,"threshold":null}},
            "decisions":{{"sample_rate":4,"max_samples":64,"points":[
              {{"index":0,"load":0.200000,"decisions":1000,"misroutes":{m0},
                "misroute_rate":{rate_low:.6},
                "routers":[{{"router":0,"decisions":500,"misroutes":{m0h}}},
                           {{"router":1,"decisions":500,"misroutes":{m0h}}}],
                "samples":[]}},
              {{"index":1,"load":0.800000,"decisions":1000,"misroutes":{m1},
                "misroute_rate":{rate_high:.6},
                "routers":[{{"router":0,"decisions":500,"misroutes":{m1}}},
                           {{"router":1,"decisions":500,"misroutes":0}}],
                "samples":[{{"flight_id":7,"t_ps":2000000,"src":0,"dst":6,
                  "verdict":"indirect","min_first_hop":3,"q_m":90000,"c_m":90000.000000,
                  "threshold_margin":null,"chosen_cost":2000.000000,"margin":88000.000000,
                  "candidates":[{{"intermediate":5,"first_hop":2,"occupancy_bytes":1000,
                    "penalty":2.000000,"cost":2000.000000}}]}}]}}]}},
            "curves":[{{"label":"{title}","points":[
              {{"load":0.200000,"throughput":0.200000,"avg_delay_ns":400.0}},
              {{"load":0.800000,"throughput":0.700000,"avg_delay_ns":900.0}}]}}]}}"#,
            m0 = (rate_low * 1000.0) as u64,
            m0h = (rate_low * 500.0) as u64,
            m1 = (rate_high * 1000.0) as u64,
        )
    }

    #[test]
    fn parser_roundtrips_scalars_and_nesting() {
        let doc = Json::parse(r#"{"a":[1,2.5,-3e2],"b":{"c":null,"d":true},"e":"x\nA"}"#)
            .unwrap();
        assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(doc.get("a").unwrap().as_array().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(doc.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(doc.get("e").unwrap().as_str(), Some("x\nA"));
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
    }

    /// A 100,000-byte `[[[…` document would overflow an unbounded
    /// recursive parser's stack and abort the process; past the depth
    /// limit it is an `Err`.
    #[test]
    fn parser_rejects_unbounded_nesting_without_overflowing() {
        let deep = "[".repeat(100_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let deep_objects = "{\"a\":".repeat(50_000);
        assert!(Json::parse(&deep_objects).is_err());
        // The limit itself still parses; one level more does not.
        let at_limit = format!("{}{}", "[".repeat(MAX_JSON_DEPTH), "]".repeat(MAX_JSON_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let over = format!("[{at_limit}]");
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn digest_requires_a_decisions_section() {
        let doc = Json::parse(r#"{"title":"t","routing":"MIN","curves":[]}"#).unwrap();
        let err = digest_manifest(&doc, "A").unwrap_err();
        assert!(err.contains("decisions"), "{err}");
    }

    #[test]
    fn analysis_only_manifests_compare_on_envelopes_alone() {
        let mk = |title: &str, lo: f64, hi: f64| {
            format!(
                concat!(
                    r#"{{"title":"{}","routing":"UGAL-L","curves":[],"#,
                    r#""analysis":{{"predictions":["#,
                    r#"{{"predicted_saturation":{}}},{{"predicted_saturation":{}}}],"#,
                    r#""divergence":{{"measured_saturation":0.97,"passed":true}}}}}}"#,
                ),
                title, lo, hi
            )
        };
        let rep = compare_manifests(&mk("SF run", 0.637, 1.0), &mk("MLFM run", 0.52, 1.0))
            .expect("analysis-only pair must diff");
        assert!(rep.compared_loads.is_empty());
        assert!(rep.first_divergence.is_none());
        let text = rep.render();
        assert!(text.contains("static analysis A: saturation envelope [0.637, 1.000]"));
        assert!(text.contains("static analysis B: saturation envelope [0.520, 1.000]"));
        assert!(text.contains("gate passed"));
        assert!(text.contains("no decision ledgers to diff"));
        // One ledgerless side is still an error — nothing to anchor it.
        let bare = r#"{"title":"t","routing":"MIN","curves":[]}"#;
        assert!(compare_manifests(&mk("SF run", 0.6, 1.0), bare).is_err());
    }

    #[test]
    fn compare_finds_first_divergence_and_attributes_hop2_blindness() {
        let local = manifest("UGAL-L run", "ugal", 0.001, 0.002);
        let global = manifest("UGAL-G run", "ugal_g", 0.001, 0.340);
        let rep = compare_manifests(&local, &global).unwrap();
        assert_eq!(rep.compared_loads, vec![0.2, 0.8]);
        let d = rep.first_divergence.as_ref().expect("rates differ at 0.8");
        assert!((d.load - 0.8).abs() < 1e-9);
        assert!(d.rate_b > d.rate_a);
        // Router 0 carries the whole delta and sorts first.
        assert_eq!(d.router_deltas[0].0, 0);
        assert_eq!(d.samples_b[0].flight_id, 7);
        let attr = rep.attribution.as_ref().expect("ugal vs ugal_g attributes");
        assert!(attr.contains("first-hop-only cost visibility"));
        let text = rep.render();
        assert!(text.contains("<- diverged"));
        assert!(text.contains("first divergence at load 0.800"));
        assert!(text.contains("first-hop-only cost visibility"));
        assert!(text.contains("flight      7"));
        let js = rep.to_json();
        assert!(js.contains("\"schema\":\"d2net.compare/v1\""));
        assert!(js.contains("\"attributed\":true"));
    }

    #[test]
    fn agreeing_runs_report_no_divergence() {
        let a = manifest("UGAL-L a", "ugal", 0.001, 0.002);
        let b = manifest("UGAL-L b", "ugal", 0.001, 0.002);
        let rep = compare_manifests(&a, &b).unwrap();
        assert!(rep.first_divergence.is_none());
        assert!(rep.attribution.is_none());
        assert!(rep.render().contains("no divergence"));
    }

    #[test]
    fn analysis_sections_digest_render_and_serialize() {
        let base = manifest("UGAL-L run", "ugal", 0.001, 0.002);
        // Splice an "analysis" section in front of "decisions", as the
        // manifest writer emits it for oracle-backed campaigns.
        let with = base.replace(
            "\"decisions\":",
            concat!(
                "\"analysis\":{\"load_units\":\"node injection rates at offered load 1.0\",",
                "\"predictions\":[",
                "{\"traffic\":\"uniform\",\"algorithm\":\"ugal\",\"envelope\":\"minimal\",",
                "\"predicted_saturation\":1.000000},",
                "{\"traffic\":\"uniform\",\"algorithm\":\"ugal\",\"envelope\":\"all_indirect\",",
                "\"predicted_saturation\":0.520000}],",
                "\"divergence\":{\"traffic\":\"uniform\",\"measured_saturation\":0.950000,",
                "\"passed\":true}},\"decisions\":"
            ),
        );
        let rep = compare_manifests(&with, &base).unwrap();
        let an = rep.a.analysis.as_ref().expect("A carries an analysis digest");
        assert_eq!(an.predictions, 2);
        assert!((an.saturation_lo - 0.52).abs() < 1e-9);
        assert!((an.saturation_hi - 1.0).abs() < 1e-9);
        assert_eq!(an.measured_saturation, Some(0.95));
        assert_eq!(an.divergence_passed, Some(true));
        assert!(rep.b.analysis.is_none());
        let text = rep.render();
        assert!(text.contains("static analysis A: saturation envelope [0.520, 1.000]"), "{text}");
        assert!(text.contains("measured 0.950 (gate passed)"), "{text}");
        let js = rep.to_json();
        assert!(js.contains("\"analysis_a\":{\"predictions\":2"), "{js}");
        assert!(js.contains("\"analysis_b\":null"), "{js}");
    }

    #[test]
    fn mismatched_load_grids_are_an_error() {
        let a = manifest("a", "ugal", 0.0, 0.1);
        let b = manifest("b", "ugal_g", 0.0, 0.1).replace("\"load\":0.800000", "\"load\":0.850000");
        let err = compare_manifests(&a, &b).unwrap_err();
        assert!(err.contains("load grids differ"), "{err}");
    }
}
