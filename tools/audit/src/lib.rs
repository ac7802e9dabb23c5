//! `milpjoin-audit` — the workspace invariant linter.
//!
//! A dependency-free static checker for the correctness invariants the
//! type system cannot see. Six rules:
//!
//! * **`no-panic`** — library code returns classified errors; no
//!   `.unwrap()` / `.expect(…)` / panicking macros outside test code and
//!   proven-invariant allows.
//! * **`no-wall-clock`** — all wall-clock reads route through
//!   `milpjoin_shim::time::now()` (the virtualizable choke point); no
//!   direct `Instant::now` / `SystemTime`.
//! * **`no-unordered-iter`** — no iteration over `HashMap`/`HashSet`
//!   in plan-affecting paths (randomized order ⇒ run-to-run plan churn).
//! * **`lock-discipline`** — in the concurrent core, no blocking call or
//!   user-callback invocation while a cache-shard or pool lock guard is
//!   live.
//! * **`stop-reason-exhaustive`** — `match` sites over the stop/error
//!   classification enums name every variant (no `_` arms).
//! * **`no-fs-outside-persist`** — filesystem access lives in
//!   `qopt::persist` only; durable state goes through the versioned,
//!   checksummed, atomically written snapshot tier.
//!
//! Point exemptions use the inline escape hatch — a comment on the same
//! line or the line(s) directly above:
//!
//! ```text
//! // audit-allow(no-panic): loop guard proves the shard is non-empty.
//! ```
//!
//! The rule name must be real and the reason non-empty; malformed allows
//! are themselves findings (rule `audit-allow`). Run as
//! `cargo run -p milpjoin-audit -- lint` from the workspace root; exits
//! nonzero when findings exist, and `--json` emits a machine-readable
//! report for CI.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod rules;
pub mod scan;
pub mod strip;

/// Rule identifiers accepted by `audit-allow(...)`.
pub const RULE_NAMES: &[&str] = &[
    "no-panic",
    "no-wall-clock",
    "no-unordered-iter",
    "lock-discipline",
    "stop-reason-exhaustive",
    "no-fs-outside-persist",
];

/// Workspace-relative directories the linter walks: every library crate's
/// sources plus the root package's shared helpers (`src`). Examples, tests
/// and `perfbench` are deliberately absent — programs that drive the
/// library may time, print, and panic.
pub const SCAN_ROOTS: &[&str] = &[
    "src",
    "crates/core/src",
    "crates/milp/src",
    "crates/dp/src",
    "crates/qopt/src",
    "crates/shim/src",
    "crates/workloads/src",
];

/// One diagnostic: a rule violated at a file/line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Result of linting a file set.
pub struct LintOutcome {
    pub files_scanned: usize,
    /// Sorted by (file, line, rule) — deterministic across runs.
    pub findings: Vec<Finding>,
}

impl LintOutcome {
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Machine-readable report (hand-rolled JSON — the workspace takes no
    /// external dependencies).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"version\": 1,\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!("  \"findings_total\": {},\n", self.findings.len()));
        s.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                json_str(f.rule),
                json_str(&f.file),
                f.line,
                json_str(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

fn json_str(v: &str) -> String {
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Lints one source text under its workspace-relative path. The unit the
/// fixture self-tests drive directly.
pub fn lint_source(rel: &str, source: &str) -> Vec<Finding> {
    let scan = scan::FileScan::analyze(rel, source);
    let mut out = Vec::new();
    rules::no_panic(&scan, &mut out);
    rules::no_wall_clock(&scan, &mut out);
    rules::no_unordered_iter(&scan, &mut out);
    rules::lock_discipline(&scan, &mut out);
    rules::stop_reason_exhaustive(&scan, &mut out);
    rules::no_fs_outside_persist(&scan, &mut out);
    rules::malformed_allows(&scan, &mut out);
    out
}

/// Walks [`SCAN_ROOTS`] under `root` and lints every `.rs` file.
pub fn lint_workspace(root: &Path) -> io::Result<LintOutcome> {
    let mut files = Vec::new();
    for dir in SCAN_ROOTS {
        let abs = root.join(dir);
        if abs.is_dir() {
            collect_rs(&abs, &mut files)?;
        }
    }
    files.sort();
    let mut findings = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(path)?;
        findings.extend(lint_source(&rel, &source));
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(LintOutcome {
        files_scanned: files.len(),
        findings,
    })
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_source_yields_no_findings() {
        let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0)\n}\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn json_escapes_and_shape() {
        let out = LintOutcome {
            files_scanned: 1,
            findings: vec![Finding {
                rule: "no-panic",
                file: "a\"b.rs".into(),
                line: 3,
                message: "x\ny".into(),
            }],
        };
        let j = out.to_json();
        assert!(j.contains("\"files_scanned\": 1"));
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("x\\ny"));
    }
}
