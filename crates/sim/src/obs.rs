//! Operational observability: a zero-dependency, leveled, coded event
//! log plus process-wide live progress counters (DESIGN.md §16).
//!
//! The sweeps, the supervisor and the batch service all emit **events**
//! — small coded records with a monotonic sequence number and a
//! wall-clock stamp — through one global sink installed by the process
//! that wants them (`d2net-serve --events`, tests, ad-hoc tooling).
//! Rendered as JSONL under the `d2net.events/v1` schema, the stream
//! unifies what used to be scattered side channels: [`SweepNotice`]
//! stderr prints, supervision retries and chaos arms, and the
//! `ENV_INVALID` warnings of [`crate::envcfg`].
//!
//! **Observer-only invariant.** Nothing in this module may influence a
//! simulation result. Events and counters are written *about* runs,
//! never read *by* them; every emitter sits outside the deterministic
//! core (after `synthetic_stats`, at notice assembly, in retry loops).
//! All determinism gates — serial ≡ parallel ≡ sharded ≡ supervised
//! manifest bytes — hold with observability on or off, which
//! `tests/obs.rs` pins. Event *order* across worker threads is not
//! deterministic (the sequence number records arrival, not schedule);
//! the determinism contract covers results, not the log.
//!
//! When no sink is installed and observability is disabled (the
//! default), every hook is a single relaxed atomic load — sweeps in
//! library use pay nothing.

use crate::sweep::SweepNotice;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// Schema tag of the JSONL event stream; the first line of every event
/// log file is `{"schema":"d2net.events/v1"}`.
pub const EVENTS_SCHEMA: &str = "d2net.events/v1";

/// Event severity. Order is meaningful: a minimum level filters
/// everything below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

/// A typed event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// One event of the `d2net.events/v1` stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic per-process sequence number (assignment order).
    pub seq: u64,
    /// Wall-clock stamp, milliseconds since the Unix epoch.
    pub t_ms: u64,
    pub level: Level,
    /// Machine-readable discriminator — the same closed vocabulary the
    /// notices use (`"wedged"`, `"panicked"`, …) plus the operational
    /// codes (`"point_run"`, `"heartbeat"`, `"env_invalid"`, …).
    pub code: &'static str,
    /// Human-readable rendering (may be empty for pure-data events).
    pub message: String,
    /// Typed payload, flattened into the JSON object. Field names must
    /// avoid the reserved keys `seq`/`t_ms`/`level`/`code`/`message`.
    pub fields: Vec<(&'static str, Value)>,
}

/// Appends `s` to `out` as a quoted JSON string — the one escaper
/// behind the event stream and `d2net-core`'s manifest writer.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Event {
    /// Renders the event as one JSON object (no trailing newline).
    /// Floats use the journal's `{:.6}` convention so the stream stays
    /// locale- and shortest-repr-independent.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str(&format!(
            "{{\"seq\":{},\"t_ms\":{},\"level\":\"{}\",\"code\":",
            self.seq,
            self.t_ms,
            self.level.as_str()
        ));
        escape_into(&mut out, self.code);
        out.push_str(",\"message\":");
        escape_into(&mut out, &self.message);
        for (k, v) in &self.fields {
            debug_assert!(
                !matches!(*k, "seq" | "t_ms" | "level" | "code" | "message"),
                "event field '{k}' shadows a reserved key"
            );
            out.push(',');
            escape_into(&mut out, k);
            out.push(':');
            match v {
                Value::U64(n) => out.push_str(&n.to_string()),
                Value::F64(x) => out.push_str(&format!("{x:.6}")),
                Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Value::Str(s) => escape_into(&mut out, s),
            }
        }
        out.push('}');
        out
    }
}

/// Where emitted events go. Sinks run under the global emit lock, so an
/// implementation only needs interior consistency, not thread safety.
pub trait EventSink: Send {
    fn event(&mut self, ev: &Event);
    fn flush(&mut self) {}
}

/// Collects events in a shared buffer — the test sink.
pub struct MemorySink {
    buf: Arc<Mutex<Vec<Event>>>,
}

impl MemorySink {
    /// Returns the sink plus the shared handle the test keeps to read
    /// what was captured after the sink itself was installed.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> (Box<dyn EventSink>, Arc<Mutex<Vec<Event>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        (Box::new(MemorySink { buf: buf.clone() }), buf)
    }
}

impl EventSink for MemorySink {
    fn event(&mut self, ev: &Event) {
        lock_ignoring_poison(&self.buf).push(ev.clone());
    }
}

/// Appends events as JSONL to a file, one line per event, flushed per
/// event so `d2net-top --events` can tail a live log. A freshly created
/// file starts with the `d2net.events/v1` schema header line.
pub struct FileSink {
    w: std::io::BufWriter<std::fs::File>,
}

impl FileSink {
    /// Creates (or truncates) `path` and writes the schema header.
    pub fn create(path: &std::path::Path) -> std::io::Result<Box<dyn EventSink>> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"schema\":\"{EVENTS_SCHEMA}\"}}")?;
        w.flush()?;
        Ok(Box::new(FileSink { w }))
    }
}

impl EventSink for FileSink {
    fn event(&mut self, ev: &Event) {
        // An I/O failure must never take the run down: observability is
        // strictly weaker than the work it observes.
        let _ = writeln!(self.w, "{}", ev.render_json());
        let _ = self.w.flush();
    }

    fn flush(&mut self) {
        let _ = self.w.flush();
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static MIN_LEVEL: AtomicU8 = AtomicU8::new(Level::Debug as u8);
static SEQ: AtomicU64 = AtomicU64::new(0);
static SINK: Mutex<Option<Box<dyn EventSink>>> = Mutex::new(None);

fn lock_ignoring_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A sink that panicked mid-event must not wedge every later emit.
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// True when observability hooks are live. The one check every hook
/// performs first; a relaxed load so disabled-mode cost is negligible.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the progress counters (and event emission, if a sink is
/// installed) on without requiring a sink — the batch service uses this
/// for `--status-addr` without `--events`.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns every hook back into a no-op. The sink, if any, stays
/// installed (use [`take_sink`] to retrieve and flush it).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Installs the global event sink (replacing any previous one, which is
/// flushed and dropped) and enables observability.
pub fn install_sink(sink: Box<dyn EventSink>) {
    let prev = lock_ignoring_poison(&SINK).replace(sink);
    if let Some(mut prev) = prev {
        prev.flush();
    }
    enable();
}

/// Removes and returns the global sink, flushing it first. Does not
/// flip [`enabled`] — progress counters keep ticking until [`disable`].
pub fn take_sink() -> Option<Box<dyn EventSink>> {
    let mut sink = lock_ignoring_poison(&SINK).take();
    if let Some(s) = sink.as_mut() {
        s.flush();
    }
    sink
}

/// Events below `level` are dropped at the emit site.
pub fn set_min_level(level: Level) {
    MIN_LEVEL.store(level as u8, Ordering::SeqCst);
}

fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Emits one event to the installed sink. A no-op unless [`enabled`]
/// and at or above the minimum level; callers building an expensive
/// message should guard on [`enabled`] themselves.
pub fn emit(level: Level, code: &'static str, message: String, fields: Vec<(&'static str, Value)>) {
    if !enabled() || (level as u8) < MIN_LEVEL.load(Ordering::Relaxed) {
        return;
    }
    let ev = Event {
        seq: SEQ.fetch_add(1, Ordering::SeqCst),
        t_ms: now_ms(),
        level,
        code,
        message,
        fields,
    };
    if let Some(sink) = lock_ignoring_poison(&SINK).as_mut() {
        sink.event(&ev);
    }
}

/// Routes a legacy coded stderr line: with observability enabled it
/// becomes a `Warn` event (the message is the coded string, verbatim);
/// disabled, it prints to stderr exactly as before. The migration shim
/// for `ENV_INVALID` / `JOURNAL_APPEND` warnings.
pub fn warn_line(code: &'static str, line: &str) {
    if enabled() {
        emit(Level::Warn, code, line.to_string(), Vec::new());
    } else {
        eprintln!("{line}");
    }
}

// ---------------------------------------------------------------------
// Live progress counters
// ---------------------------------------------------------------------

/// Process-wide progress counters, updated by the sweep harnesses while
/// [`enabled`]. Cumulative over the process lifetime; consumers (the
/// status endpoint, `d2net-top`) work with snapshots and deltas.
struct Progress {
    sweeps_started: AtomicU64,
    sweeps_finished: AtomicU64,
    /// Points scheduled across all sweeps started so far.
    points_total: AtomicU64,
    /// Point attempts that returned (live; counts every retry attempt).
    points_run: AtomicU64,
    points_completed: AtomicU64,
    points_retried: AtomicU64,
    points_panicked: AtomicU64,
    points_exhausted: AtomicU64,
    points_resumed: AtomicU64,
    points_not_run: AtomicU64,
    points_stubbed: AtomicU64,
    /// Retry attempts observed live in the supervisor's retry loop.
    retry_attempts: AtomicU64,
    /// Engine events processed across all completed point runs.
    events_processed: AtomicU64,
    /// Wall-clock microseconds spent inside point runs.
    point_wall_us: AtomicU64,
}

static PROGRESS: Progress = Progress {
    sweeps_started: AtomicU64::new(0),
    sweeps_finished: AtomicU64::new(0),
    points_total: AtomicU64::new(0),
    points_run: AtomicU64::new(0),
    points_completed: AtomicU64::new(0),
    points_retried: AtomicU64::new(0),
    points_panicked: AtomicU64::new(0),
    points_exhausted: AtomicU64::new(0),
    points_resumed: AtomicU64::new(0),
    points_not_run: AtomicU64::new(0),
    points_stubbed: AtomicU64::new(0),
    retry_attempts: AtomicU64::new(0),
    events_processed: AtomicU64::new(0),
    point_wall_us: AtomicU64::new(0),
};

/// A point-in-time copy of the progress counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgressSnapshot {
    pub sweeps_started: u64,
    pub sweeps_finished: u64,
    pub points_total: u64,
    pub points_run: u64,
    pub points_completed: u64,
    pub points_retried: u64,
    pub points_panicked: u64,
    pub points_exhausted: u64,
    pub points_resumed: u64,
    pub points_not_run: u64,
    pub points_stubbed: u64,
    pub retry_attempts: u64,
    pub events_processed: u64,
    pub point_wall_us: u64,
}

impl ProgressSnapshot {
    /// Points accounted for by finished sweeps — completed, or coded
    /// into one of the exceptional categories. Equals `points_total`
    /// once every started sweep has finished.
    pub fn points_accounted(&self) -> u64 {
        self.points_completed
            + self.points_panicked
            + self.points_exhausted
            + self.points_resumed
            + self.points_not_run
            + self.points_stubbed
    }
}

/// Reads the current counters.
pub fn snapshot() -> ProgressSnapshot {
    let p = &PROGRESS;
    let ld = |a: &AtomicU64| a.load(Ordering::SeqCst);
    ProgressSnapshot {
        sweeps_started: ld(&p.sweeps_started),
        sweeps_finished: ld(&p.sweeps_finished),
        points_total: ld(&p.points_total),
        points_run: ld(&p.points_run),
        points_completed: ld(&p.points_completed),
        points_retried: ld(&p.points_retried),
        points_panicked: ld(&p.points_panicked),
        points_exhausted: ld(&p.points_exhausted),
        points_resumed: ld(&p.points_resumed),
        points_not_run: ld(&p.points_not_run),
        points_stubbed: ld(&p.points_stubbed),
        retry_attempts: ld(&p.retry_attempts),
        events_processed: ld(&p.events_processed),
        point_wall_us: ld(&p.point_wall_us),
    }
}

/// Zeroes every counter — test isolation only; production consumers
/// difference snapshots instead.
pub fn reset_progress() {
    let p = &PROGRESS;
    for a in [
        &p.sweeps_started,
        &p.sweeps_finished,
        &p.points_total,
        &p.points_run,
        &p.points_completed,
        &p.points_retried,
        &p.points_panicked,
        &p.points_exhausted,
        &p.points_resumed,
        &p.points_not_run,
        &p.points_stubbed,
        &p.retry_attempts,
        &p.events_processed,
        &p.point_wall_us,
    ] {
        a.store(0, Ordering::SeqCst);
    }
}

/// Final per-category accounting of one sweep, in the supervisor's
/// dialect ([`crate::supervise::SupervisionSummary`]): `completed`
/// includes wedges (a wedge is a result), the other buckets are the
/// exceptional paths, and the buckets partition the load grid —
/// `completed + panicked + exhausted + resumed + not_run + stubbed`
/// equals the sweep's point count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepAccounting {
    pub completed: u64,
    /// Of `completed`, points that needed at least one retry.
    pub retried: u64,
    pub panicked: u64,
    pub exhausted: u64,
    pub resumed: u64,
    pub not_run: u64,
    pub stubbed: u64,
}

/// A sweep is starting over `points` loads.
pub fn sweep_started(points: usize) {
    if !enabled() {
        return;
    }
    PROGRESS.sweeps_started.fetch_add(1, Ordering::SeqCst);
    PROGRESS.points_total.fetch_add(points as u64, Ordering::SeqCst);
    emit(
        Level::Info,
        "sweep_start",
        format!("sweep started over {points} points"),
        vec![("points", points.into())],
    );
}

/// A sweep finished; folds its accounting into the global counters.
pub fn sweep_finished(acc: &SweepAccounting) {
    if !enabled() {
        return;
    }
    let p = &PROGRESS;
    p.sweeps_finished.fetch_add(1, Ordering::SeqCst);
    p.points_completed.fetch_add(acc.completed, Ordering::SeqCst);
    p.points_retried.fetch_add(acc.retried, Ordering::SeqCst);
    p.points_panicked.fetch_add(acc.panicked, Ordering::SeqCst);
    p.points_exhausted.fetch_add(acc.exhausted, Ordering::SeqCst);
    p.points_resumed.fetch_add(acc.resumed, Ordering::SeqCst);
    p.points_not_run.fetch_add(acc.not_run, Ordering::SeqCst);
    p.points_stubbed.fetch_add(acc.stubbed, Ordering::SeqCst);
    emit(
        Level::Info,
        "sweep_done",
        format!(
            "sweep finished: {} completed, {} panicked, {} exhausted, \
             {} resumed, {} not run, {} stubbed",
            acc.completed, acc.panicked, acc.exhausted, acc.resumed, acc.not_run, acc.stubbed
        ),
        vec![
            ("completed", acc.completed.into()),
            ("retried", acc.retried.into()),
            ("panicked", acc.panicked.into()),
            ("exhausted", acc.exhausted.into()),
            ("resumed", acc.resumed.into()),
            ("not_run", acc.not_run.into()),
            ("stubbed", acc.stubbed.into()),
        ],
    );
}

/// One point attempt returned a real result: live progress plus the
/// per-point wall-clock and engine-event count.
#[allow(clippy::too_many_arguments)]
pub fn point_run(
    index: usize,
    load: f64,
    wall_ms: f64,
    events: u64,
    throughput: f64,
    deadlocked: bool,
    exhausted: bool,
) {
    if !enabled() {
        return;
    }
    PROGRESS.points_run.fetch_add(1, Ordering::SeqCst);
    PROGRESS.events_processed.fetch_add(events, Ordering::SeqCst);
    PROGRESS
        .point_wall_us
        .fetch_add((wall_ms * 1_000.0) as u64, Ordering::SeqCst);
    emit(
        Level::Info,
        "point_run",
        format!("point {index} at load {load:.3} ran in {wall_ms:.1} ms ({events} events)"),
        vec![
            ("index", index.into()),
            ("load", load.into()),
            ("wall_ms", wall_ms.into()),
            ("events", events.into()),
            ("throughput", throughput.into()),
            ("deadlocked", deadlocked.into()),
            ("exhausted", exhausted.into()),
        ],
    );
}

/// One point attempt panicked and was isolated.
pub fn point_panic(index: usize, load: f64, wall_ms: f64, msg: &str) {
    if !enabled() {
        return;
    }
    PROGRESS.points_run.fetch_add(1, Ordering::SeqCst);
    PROGRESS
        .point_wall_us
        .fetch_add((wall_ms * 1_000.0) as u64, Ordering::SeqCst);
    emit(
        Level::Warn,
        "point_panic",
        format!("point {index} at load {load:.3} panicked: {msg}"),
        vec![
            ("index", index.into()),
            ("load", load.into()),
            ("wall_ms", wall_ms.into()),
        ],
    );
}

/// The supervisor is about to retry a failed point attempt.
pub fn retry(index: usize, load: f64, attempt: u32, reason: &'static str) {
    if !enabled() {
        return;
    }
    PROGRESS.retry_attempts.fetch_add(1, Ordering::SeqCst);
    emit(
        Level::Warn,
        "point_retry",
        format!("point {index} at load {load:.3} retrying (attempt {attempt}): {reason}"),
        vec![
            ("index", index.into()),
            ("load", load.into()),
            ("attempt", attempt.into()),
            ("reason", reason.into()),
        ],
    );
}

/// The chaos registry armed a fault for a (point, attempt).
pub fn chaos_armed(index: usize, attempt: u32, kind: &'static str, after_events: u64) {
    if !enabled() {
        return;
    }
    emit(
        Level::Debug,
        "chaos_armed",
        format!("chaos {kind} armed for point {index} attempt {attempt}"),
        vec![
            ("index", index.into()),
            ("attempt", attempt.into()),
            ("kind", kind.into()),
            ("after_events", after_events.into()),
        ],
    );
}

/// Routes a [`SweepNotice`] into the event stream at its assembly site:
/// the event's code is the notice's code and the message is the
/// `render()` string, verbatim — the same coded line that previously
/// only reached stderr.
pub fn notice(n: &SweepNotice) {
    if !enabled() {
        return;
    }
    emit(
        Level::Warn,
        n.code,
        n.render(),
        vec![("index", n.index.into()), ("load", n.load.into())],
    );
}

// ---------------------------------------------------------------------
// Per-run engine event counts
// ---------------------------------------------------------------------

thread_local! {
    /// Engine events of the run that most recently finalized on this
    /// thread — written by `Engine::synthetic_stats`, consumed by the
    /// point runner that drove the run (serial and sharded runs both
    /// finalize on the driving thread).
    static RUN_EVENTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Records the engine-event count of the run finalizing on this thread.
pub fn note_run_events(n: u64) {
    RUN_EVENTS.with(|c| c.set(n));
}

/// Takes (and clears) the last recorded engine-event count, so a
/// panicked or skipped run never inherits its predecessor's count.
pub fn take_run_events() -> u64 {
    RUN_EVENTS.with(|c| c.replace(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every test here mutates process-global state; serialize them.
    static LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        let g = lock_ignoring_poison(&LOCK);
        reset_progress();
        let _ = take_sink();
        disable();
        g
    }

    #[test]
    fn disabled_hooks_are_inert() {
        let _g = guard();
        sweep_started(10);
        point_run(0, 0.5, 1.0, 100, 0.4, false, false);
        sweep_finished(&SweepAccounting {
            completed: 10,
            ..Default::default()
        });
        assert_eq!(snapshot(), ProgressSnapshot::default());
    }

    #[test]
    fn events_render_as_escaped_single_line_json() {
        let ev = Event {
            seq: 7,
            t_ms: 123,
            level: Level::Warn,
            code: "panicked",
            message: "a \"quoted\"\nline\t\\".to_string(),
            fields: vec![
                ("index", 3usize.into()),
                ("load", 0.25f64.into()),
                ("ok", false.into()),
                ("tag", "x\"y".into()),
            ],
        };
        let line = ev.render_json();
        assert!(!line.contains('\n'), "one line: {line}");
        assert_eq!(
            line,
            "{\"seq\":7,\"t_ms\":123,\"level\":\"warn\",\"code\":\"panicked\",\
             \"message\":\"a \\\"quoted\\\"\\nline\\t\\\\\",\
             \"index\":3,\"load\":0.250000,\"ok\":false,\"tag\":\"x\\\"y\"}"
        );
    }

    #[test]
    fn memory_sink_captures_with_monotonic_seq_and_level_filter() {
        let _g = guard();
        let (sink, buf) = MemorySink::new();
        install_sink(sink);
        set_min_level(Level::Info);
        emit(Level::Debug, "chaos_armed", "dropped".into(), vec![]);
        emit(Level::Info, "sweep_start", "kept".into(), vec![]);
        emit(Level::Warn, "wedged", "kept too".into(), vec![]);
        set_min_level(Level::Debug);
        let _ = take_sink();
        disable();
        let events = buf.lock().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].code, "sweep_start");
        assert_eq!(events[1].code, "wedged");
        assert!(events[0].seq < events[1].seq, "seq must be monotonic");
    }

    #[test]
    fn warn_line_becomes_event_when_enabled() {
        let _g = guard();
        let (sink, buf) = MemorySink::new();
        install_sink(sink);
        warn_line("env_invalid", "d2net: WARN ENV_INVALID X='y'");
        let _ = take_sink();
        disable();
        let events = buf.lock().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].code, "env_invalid");
        assert_eq!(events[0].message, "d2net: WARN ENV_INVALID X='y'");
        assert_eq!(events[0].level, Level::Warn);
    }

    #[test]
    fn progress_counters_fold_sweep_accounting() {
        let _g = guard();
        enable();
        sweep_started(6);
        point_run(0, 0.1, 2.0, 500, 0.1, false, false);
        point_panic(1, 0.2, 0.5, "boom");
        retry(1, 0.2, 1, "panic");
        sweep_finished(&SweepAccounting {
            completed: 3,
            retried: 1,
            panicked: 1,
            exhausted: 1,
            resumed: 0,
            not_run: 0,
            stubbed: 1,
        });
        let s = snapshot();
        disable();
        assert_eq!(s.points_total, 6);
        assert_eq!(s.points_run, 2);
        assert_eq!(s.events_processed, 500);
        assert_eq!(s.retry_attempts, 1);
        assert_eq!(s.points_accounted(), 6, "buckets partition the grid");
        assert!(s.point_wall_us >= 2_500);
    }

    #[test]
    fn run_events_note_is_take_once() {
        let _g = guard();
        note_run_events(42);
        assert_eq!(take_run_events(), 42);
        assert_eq!(take_run_events(), 0, "second take sees a cleared cell");
    }
}
