//! Structured diagnostics for the static preflight verifier.
//!
//! A verification run produces a [`Report`]: an ordered list of
//! [`Diagnostic`]s, each tagged with a stable machine-readable code and a
//! severity. The overall verdict is derived, not stored: a config is
//! certified iff no diagnostic reached [`Severity::Error`].

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Supporting evidence: a check that ran and passed, with its census.
    Info,
    /// Suspicious but not provably unsafe; simulation may proceed.
    Warning,
    /// Provably unsafe or inconsistent; the engine will refuse under
    /// `Preflight::Enforce`.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "INFO"),
            Severity::Warning => write!(f, "WARN"),
            Severity::Error => write!(f, "ERROR"),
        }
    }
}

/// One finding from one check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub severity: Severity,
    /// Stable kebab-case code, e.g. `cdg-cycle`, `table-unreachable`.
    pub code: &'static str,
    /// Human-readable detail; may span multiple lines (counterexamples).
    pub message: String,
}

/// The derived outcome of a verification run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No errors: safe to simulate.
    Certified,
    /// At least one error: the engine refuses under `Preflight::Enforce`.
    Rejected,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Certified => write!(f, "CERTIFIED"),
            Verdict::Rejected => write!(f, "REJECTED"),
        }
    }
}

/// The full result of statically verifying one (topology, policy,
/// parameters) triple.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// What was verified, e.g. `SF(q=5,p=3) under MIN [HopIndex, 2 VCs]`.
    pub subject: String,
    pub diagnostics: Vec<Diagnostic>,
    /// Length of the extracted CDG dependency cycle (0 = acyclic).
    pub cdg_cycle_len: u32,
}

impl Report {
    /// Certified iff no [`Severity::Error`] diagnostic was produced.
    pub fn verdict(&self) -> Verdict {
        if self.count(Severity::Error) == 0 {
            Verdict::Certified
        } else {
            Verdict::Rejected
        }
    }

    /// Number of diagnostics at exactly `severity`.
    pub fn count(&self, severity: Severity) -> u32 {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count() as u32
    }

    /// The first diagnostic with the given code, if any.
    pub fn find(&self, code: &str) -> Option<&Diagnostic> {
        self.diagnostics.iter().find(|d| d.code == code)
    }

    /// Compact, manifest-friendly summary of the run.
    pub fn summary(&self) -> VerifySummary {
        VerifySummary {
            subject: self.subject.clone(),
            certified: self.verdict() == Verdict::Certified,
            errors: self.count(Severity::Error),
            warnings: self.count(Severity::Warning),
            infos: self.count(Severity::Info),
            cdg_cycle_len: self.cdg_cycle_len,
        }
    }

    /// Renders the report in the style of the telemetry forensics output:
    /// a one-line verdict header followed by one indented line per
    /// diagnostic (continuation lines of multi-line messages indented
    /// further).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "PREFLIGHT {}: {} ({} errors, {} warnings)",
            self.subject,
            self.verdict(),
            self.count(Severity::Error),
            self.count(Severity::Warning),
        );
        for d in &self.diagnostics {
            let mut lines = d.message.lines();
            if let Some(first) = lines.next() {
                let _ = writeln!(out, "  {:<5} [{}] {}", d.severity, d.code, first);
            }
            for rest in lines {
                let _ = writeln!(out, "        {rest}");
            }
        }
        out
    }
}

/// Flat summary of a [`Report`], serialized into the v1 run manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifySummary {
    pub subject: String,
    pub certified: bool,
    pub errors: u32,
    pub warnings: u32,
    pub infos: u32,
    /// Length of the extracted CDG dependency cycle (0 = acyclic).
    pub cdg_cycle_len: u32,
}

impl fmt::Display for VerifySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} ({} errors, {} warnings, {} infos",
            self.subject,
            if self.certified { "CERTIFIED" } else { "REJECTED" },
            self.errors,
            self.warnings,
            self.infos,
        )?;
        if self.cdg_cycle_len > 0 {
            write!(f, ", CDG cycle of {} channels", self.cdg_cycle_len)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(severity: Severity, code: &'static str) -> Diagnostic {
        Diagnostic {
            severity,
            code,
            message: format!("{code} fired\nsecond line"),
        }
    }

    #[test]
    fn verdict_follows_errors() {
        let mut r = Report {
            subject: "test".into(),
            diagnostics: vec![diag(Severity::Info, "a"), diag(Severity::Warning, "b")],
            cdg_cycle_len: 0,
        };
        assert_eq!(r.verdict(), Verdict::Certified);
        r.diagnostics.push(diag(Severity::Error, "c"));
        assert_eq!(r.verdict(), Verdict::Rejected);
        let s = r.summary();
        assert!(!s.certified);
        assert_eq!((s.errors, s.warnings, s.infos), (1, 1, 1));
    }

    #[test]
    fn render_has_header_and_indented_lines() {
        let r = Report {
            subject: "ring under MIN".into(),
            diagnostics: vec![diag(Severity::Error, "cdg-cycle")],
            cdg_cycle_len: 5,
        };
        let text = r.render();
        assert!(text.starts_with("PREFLIGHT ring under MIN: REJECTED"));
        assert!(text.contains("ERROR [cdg-cycle]"));
        assert!(text.contains("\n        second line"));
        assert_eq!(r.find("cdg-cycle").expect("cycle diag present").severity, Severity::Error);
        assert!(r.find("nope").is_none());
    }
}
