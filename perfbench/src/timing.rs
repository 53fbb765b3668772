//! Host timing: the repetition loop and the layer spans of a traced run.
//!
//! Host time on a small shared box drifts over seconds, so a run repeats
//! one deterministic unit of work after an untimed warm-up and reports
//! the median repetition; the minimum wanders more than the median.
//! Spans are recorded only in a traced run, around the benchmark's own
//! calls into each layer, and kept in memory until the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Repetition the span belongs to; `None` for set-up and for the
    /// once-per-run layer passes that follow the repetitions.
    pub rep: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

/// Records spans when tracing is on; otherwise just runs the closures.
pub struct Clock {
    traced: bool,
    recording: bool,
    rep: Option<usize>,
    origin: Instant,
    spans: Vec<Span>,
    traced_reps: Vec<usize>,
}

impl Clock {
    /// `origin` is the process start, so set-up spans read as offsets
    /// from it.
    pub fn new(traced: bool, origin: Instant) -> Self {
        Clock {
            traced,
            recording: traced,
            rep: None,
            origin,
            spans: Vec::new(),
            traced_reps: Vec::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Runs `f`, recording it as a span of layer `name` when recording.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.recording {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            rep: self.rep,
            start_s: (start - self.origin).as_secs_f64(),
            end_s: (end - self.origin).as_secs_f64(),
        });
        out
    }

    /// Records an already measured duration as a span ending now.
    pub fn record(&mut self, name: &'static str, seconds: f64) {
        if self.recording {
            let end_s = self.origin.elapsed().as_secs_f64();
            self.spans.push(Span {
                name,
                rep: self.rep,
                start_s: end_s - seconds,
                end_s,
            });
        }
    }

    /// Total seconds of layer `name` outside the repetitions.
    pub fn once(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.rep.is_none() && s.name == name)
            .map(|s| s.end_s - s.start_s)
            .sum()
    }

    /// Median over traced repetitions of the seconds layer `name` took
    /// in each; 0 when no repetition called it.
    pub fn per_rep(&self, name: &str) -> f64 {
        let sums: Vec<f64> = self
            .traced_reps
            .iter()
            .map(|&rep| {
                self.spans
                    .iter()
                    .filter(|s| s.rep == Some(rep) && s.name == name)
                    .map(|s| s.end_s - s.start_s)
                    .sum()
            })
            .collect();
        if sums.is_empty() {
            0.0
        } else {
            median(&sums)
        }
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let rep = s.rep.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"rep\":{},\"start_s\":{},\"end_s\":{}}}",
                s.name, rep, s.start_s, s.end_s
            )?;
        }
        out.flush()
    }
}

/// What the repetition loop measured.
pub struct Reps<O> {
    /// Output of the warm-up repetition, the reference every timed
    /// repetition must reproduce.
    pub output: O,
    /// Seconds of each untraced repetition.
    pub untraced_s: Vec<f64>,
    /// Seconds of each traced repetition (traced runs only).
    pub traced_s: Vec<f64>,
    /// Timed repetitions whose output differed from the warm-up's.
    pub mismatches: usize,
}

impl<O> Reps<O> {
    pub fn count(&self) -> usize {
        self.untraced_s.len() + self.traced_s.len()
    }
}

/// Runs `unit` once untimed, then repeatedly for about `seconds`: a
/// repetition starts only if the longest one so far still fits in the
/// window. A traced run alternates untraced and traced repetitions, so
/// the two medians give the tracing overhead within one process.
pub fn repeat<O: PartialEq>(
    clock: &mut Clock,
    seconds: f64,
    mut unit: impl FnMut(&mut Clock) -> O,
) -> Reps<O> {
    clock.recording = false;
    let output = unit(clock);
    let mut reps = Reps {
        output,
        untraced_s: Vec::new(),
        traced_s: Vec::new(),
        mismatches: 0,
    };
    let min_reps = if clock.traced { 2 } else { 1 };
    let window = Instant::now();
    let mut longest = 0.0f64;
    for rep in 0.. {
        let traced = clock.traced && rep % 2 == 1;
        clock.recording = traced;
        clock.rep = Some(rep);
        if traced {
            clock.traced_reps.push(rep);
        }
        let start = Instant::now();
        let out = unit(clock);
        let dt = start.elapsed().as_secs_f64();
        if out != reps.output {
            reps.mismatches += 1;
        }
        if traced {
            reps.traced_s.push(dt);
        } else {
            reps.untraced_s.push(dt);
        }
        longest = longest.max(dt);
        if rep + 1 >= min_reps && window.elapsed().as_secs_f64() + longest > seconds {
            break;
        }
    }
    clock.recording = clock.traced;
    clock.rep = None;
    let ms = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{:.0}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "perfbench: repetitions (ms): untraced [{}] traced [{}]",
        ms(&reps.untraced_s),
        ms(&reps.traced_s)
    );
    reps
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn repeat_counts_mismatches_and_alternates_traced_reps() {
        let mut clock = Clock::new(true, Instant::now());
        let mut calls = 0u32;
        let reps = repeat(&mut clock, 0.0, |c| {
            calls += 1;
            c.span("layer", || calls >= 3)
        });
        // Warm-up plus two timed repetitions: untraced, then traced.
        assert_eq!(calls, 3);
        assert_eq!((reps.untraced_s.len(), reps.traced_s.len()), (1, 1));
        assert_eq!(reps.mismatches, 1);
        assert!(clock.per_rep("layer") >= 0.0);
        assert_eq!(clock.per_rep("absent"), 0.0);
    }
}
