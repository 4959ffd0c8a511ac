//! Structured diagnostics and report rendering.
//!
//! Every lint rule emits [`Diagnostic`]s carrying a stable `BMP###` code,
//! a severity, a locus naming the offending configuration field or trace
//! position, a human message, and (where a fix is mechanical) a
//! suggestion. [`AnalysisReport`] aggregates them and renders either a
//! compiler-style human listing or one JSON document for tooling.
//! [`walk_inputs`] is the shared file/directory collector behind every
//! `bmp-lint` pass that reads artifacts from disk (`--journal`,
//! `--metrics`, `--static`).

use std::fmt;
use std::path::{Path, PathBuf};

use bmp_core::json::Value;
use bmp_core::json_object;

/// How bad a finding is.
///
/// Ordering is semantic: `Info < Warn < Error`, so `max()` over a
/// report's diagnostics yields the worst severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Stylistic or informational; the model's answers are unaffected.
    Info,
    /// Suspicious: the configuration or data is legal but undermines a
    /// model assumption (results may be misleading).
    Warn,
    /// An invariant the model relies on is broken; results computed from
    /// this input are untrustworthy.
    Error,
}

impl Severity {
    /// Lowercase label used in both renderers.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule code (`BMP000`–`BMP2xx`); see `docs/ANALYZER.md` for
    /// the catalogue.
    pub code: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// What the finding is anchored to: a config field
    /// (`machine.window_size`), a trace position (`trace[42]`), or a
    /// result component (`result.slots`).
    pub locus: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when the fix is mechanical.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub fn error(code: &'static str, locus: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            code,
            severity: Severity::Error,
            locus: locus.into(),
            message: message.into(),
            suggestion: None,
        }
    }

    /// A warn-severity diagnostic.
    pub fn warn(code: &'static str, locus: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            code,
            severity: Severity::Warn,
            locus: locus.into(),
            message: message.into(),
            suggestion: None,
        }
    }

    /// An info-severity diagnostic.
    pub fn info(code: &'static str, locus: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            code,
            severity: Severity::Info,
            locus: locus.into(),
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attaches a fix suggestion.
    #[must_use]
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }

    /// This diagnostic as one JSON object (`suggestion` is `null` when
    /// absent).
    fn to_value(&self) -> Value {
        json_object! {
            "code": self.code, "severity": self.severity.label(), "locus": self.locus.as_str(),
            "message": self.message.as_str(), "suggestion": self.suggestion.as_deref(),
        }
    }

    /// Renders this diagnostic as one JSON object.
    pub fn to_json(&self) -> String {
        self.to_value().to_string()
    }
}

impl fmt::Display for Diagnostic {
    /// Compiler-style single finding:
    /// `error[BMP001] machine.fus: message` plus an indented suggestion
    /// line when present.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.locus, self.message
        )?;
        if let Some(sug) = &self.suggestion {
            write!(f, "\n    help: {sug}")?;
        }
        Ok(())
    }
}

/// The outcome of running a set of lint rules over one target.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Every finding, in rule order.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Wraps a list of findings.
    pub fn new(diagnostics: Vec<Diagnostic>) -> Self {
        Self { diagnostics }
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warn-severity findings.
    pub fn warn_count(&self) -> usize {
        self.count(Severity::Warn)
    }

    fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// `true` when there are no findings of any severity.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The worst severity present, or `None` on a clean report.
    pub fn worst(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Appends another report's findings to this one.
    pub fn merge(&mut self, other: AnalysisReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Renders the compiler-style human listing, one finding per line
    /// (suggestions indented below), ending with a summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} finding(s) total\n",
            self.error_count(),
            self.warn_count(),
            self.diagnostics.len()
        ));
        out
    }

    /// The whole report as one JSON object:
    /// `{"errors": N, "warnings": N, "diagnostics": [...]}`.
    pub fn to_value(&self) -> Value {
        json_object! {
            "errors": self.error_count(),
            "warnings": self.warn_count(),
            "diagnostics": self.diagnostics.iter().map(Diagnostic::to_value).collect::<Value>(),
        }
    }
}

/// One input file collected by [`walk_inputs`]: its path and contents.
#[derive(Debug, Clone)]
pub struct WalkedFile {
    /// Where the file was found.
    pub path: PathBuf,
    /// Its full contents.
    pub content: String,
}

/// Collects lintable input files from `path`.
///
/// A directory yields every direct child with extension `ext`, sorted
/// by name for deterministic reports; a file path yields that one file
/// regardless of extension (the caller asked for it explicitly). Any
/// I/O failure is an `Err` — the CLI treats unreadable inputs as usage
/// errors (exit 2), not lint findings.
pub fn walk_inputs(path: &str, ext: &str) -> Result<Vec<WalkedFile>, String> {
    let p = Path::new(path);
    let mut files: Vec<PathBuf> = Vec::new();
    if p.is_dir() {
        let entries =
            std::fs::read_dir(p).map_err(|e| format!("cannot read directory '{path}': {e}"))?;
        files.extend(
            entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == ext)),
        );
        files.sort();
    } else {
        files.push(p.to_path_buf());
    }
    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let content = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read '{}': {e}", path.display()))?;
        out.push(WalkedFile { path, content });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_core::json::{self, ObjectExt};

    #[test]
    fn severity_orders_by_badness() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
    }

    #[test]
    fn report_counts_and_worst() {
        let r = AnalysisReport::new(vec![
            Diagnostic::info("BMP003", "machine.predictor", "underutilized"),
            Diagnostic::warn("BMP002", "machine.window_size", "too small"),
            Diagnostic::error("BMP001", "machine.fus", "unbalanced"),
        ]);
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warn_count(), 1);
        assert_eq!(r.worst(), Some(Severity::Error));
        assert!(!r.is_clean());
        assert!(AnalysisReport::default().is_clean());
    }

    #[test]
    fn human_rendering_is_compiler_style() {
        let d = Diagnostic::error("BMP001", "machine.fus", "5 units for a 8-wide dispatch")
            .with_suggestion("add functional units or narrow the machine");
        let s = d.to_string();
        assert!(s.starts_with("error[BMP001] machine.fus:"));
        assert!(s.contains("help: add functional units"));
    }

    #[test]
    fn json_escapes_special_characters() {
        let message = "bad \"quote\"\nnewline\ttab \\ slash \u{1}";
        let d = Diagnostic::warn("BMP102", "trace[3]", message);
        let v = json::parse(&d.to_json()).unwrap();
        let obj = v.as_object("diagnostic").unwrap();
        assert_eq!(obj.get_string("message"), Ok(message));
        assert_eq!(obj.get("suggestion"), Some(&Value::Null));
    }

    #[test]
    fn report_json_shape() {
        let r = AnalysisReport::new(vec![
            Diagnostic::error("BMP201", "cpi", "m").with_suggestion("fix"),
            Diagnostic::warn("BMP002", "w", "n"),
        ]);
        let expected = r#"{ "errors": 1, "warnings": 1, "diagnostics": [
            { "code": "BMP201", "severity": "error", "locus": "cpi", "message": "m", "suggestion": "fix" },
            { "code": "BMP002", "severity": "warn", "locus": "w", "message": "n", "suggestion": null }
        ] }"#;
        assert_eq!(
            json::parse(&r.to_value().to_string()),
            json::parse(expected)
        );
    }

    #[test]
    fn walk_inputs_collects_sorted_matching_files() {
        let dir = std::env::temp_dir().join(format!("bmp-diag-walk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("b.json"), "{}").unwrap();
        std::fs::write(dir.join("a.json"), "{}").unwrap();
        std::fs::write(dir.join("c.csv"), "x").unwrap();

        let walked = walk_inputs(dir.to_str().unwrap(), "json").unwrap();
        let names: Vec<_> = walked
            .iter()
            .map(|f| f.path.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["a.json", "b.json"]);

        // A single file is returned as-is, whatever its extension.
        let one = walk_inputs(dir.join("c.csv").to_str().unwrap(), "json").unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].content, "x");

        // Missing paths are errors, not findings.
        assert!(walk_inputs(dir.join("nope.json").to_str().unwrap(), "json").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_concatenates() {
        let mut a = AnalysisReport::new(vec![Diagnostic::info("BMP003", "x", "m")]);
        a.merge(AnalysisReport::new(vec![Diagnostic::warn(
            "BMP004", "y", "n",
        )]));
        assert_eq!(a.diagnostics.len(), 2);
    }
}
