//! `welle-lint` — the determinism-contract static analyzer.
//!
//! The workspace's load-bearing guarantee is that every election
//! replays byte-identically from its seed across executors, thread
//! counts, fault plans, and latency models. The dynamic fences
//! (differential proptests, CI timing guards) catch violations after
//! the fact; this crate proves the *absence* of the known hazard
//! classes before they ship:
//!
//! | check | hazard |
//! |---|---|
//! | `no-hash-iter` | iterating `HashMap`/`HashSet` in seeded crates |
//! | `no-ambient-entropy` | `Instant::now` / `SystemTime` / `thread_rng` / `from_entropy` outside `crates/bench` |
//! | `tick-math-saturates` | raw `+`/`*` on `*_tick`/`due` virtual-time quantities |
//! | `no-lib-unwrap` | `.unwrap()` / `.expect(` in non-test library code |
//! | `no-float-eq` | `==`/`!=` on float expressions in seeded crates |
//! | `no-narrowing-cast` | `as u32`/`as u16` on index expressions in the congest hot path and the graph crate's u32 CSR helpers |
//!
//! The analyzer is a hand-rolled token scanner (the build is offline:
//! no `syn`, no `dylint`), so checks are heuristic — which is exactly
//! why every one of them supports a *scoped, justified* suppression:
//!
//! ```text
//! // welle-lint: allow(no-lib-unwrap) — index bounded by n at construction
//! ```
//!
//! A pragma suppresses the named check(s) on its own line and the line
//! below it; a pragma with no justification, or naming an unknown
//! check, is itself reported (`invalid-pragma`) and cannot be
//! suppressed. `vendor/`, `target/`, `tests/` directories and
//! `#[cfg(test)]` / `#[test]` regions are skipped entirely.
//!
//! One check is stricter still: inside the seeded crates,
//! `allow(no-ambient-entropy)` pragmas are honored **only** in the
//! designated profiler module ([`PROFILER_MODULE`]) — the one seeded
//! file sanctioned to read wall-clock time, because its nanoseconds
//! live in a separate report field and never feed simulation state. A
//! justified-looking pragma on an `Instant::now` anywhere else in a
//! seeded crate is ignored and the finding stands: ambient time cannot
//! be laundered into the deterministic paths one pragma at a time.
//!
//! Run it with `cargo run -p welle-lint -- --check` (CI does); see
//! [`scan_root`] for the library entry point.

#![deny(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod checks;
pub mod lexer;

use lexer::{Lexed, Tok, TokKind};

/// The determinism-contract checks, in reporting order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Check {
    /// Iteration over `HashMap`/`HashSet` in the seeded crates.
    NoHashIter,
    /// Wall-clock or OS entropy outside `crates/bench`.
    NoAmbientEntropy,
    /// Raw `+`/`*` on virtual-time tick quantities.
    TickMathSaturates,
    /// `.unwrap()`/`.expect(` in non-test library code.
    NoLibUnwrap,
    /// `==`/`!=` between float expressions in the seeded crates.
    NoFloatEq,
    /// `as u32`/`as u16` narrowing on congest index expressions and on
    /// the graph crate's u32 CSR index helpers.
    NoNarrowingCast,
}

/// All checks, in reporting order.
pub const ALL_CHECKS: [Check; 6] = [
    Check::NoHashIter,
    Check::NoAmbientEntropy,
    Check::TickMathSaturates,
    Check::NoLibUnwrap,
    Check::NoFloatEq,
    Check::NoNarrowingCast,
];

/// Crates whose sources are seeded simulation paths: hash-order and
/// float-comparison hazards are errors here.
const SEEDED_SCOPES: [&str; 4] = [
    "crates/congest/src",
    "crates/core/src",
    "crates/walks/src",
    "crates/graph/src",
];

/// The one seeded-path source sanctioned to read wall-clock time: the
/// telemetry span profiler, whose nanoseconds are reported in a
/// dedicated field (`SpanStats::wall_ns`) and never influence the
/// simulation. `allow(no-ambient-entropy)` pragmas inside seeded crates
/// take effect only here (see [`ambient_pragma_allowed`]).
pub const PROFILER_MODULE: &str = "crates/congest/src/telemetry.rs";

/// Whether an `allow(no-ambient-entropy)` pragma may take effect in
/// `rel`: yes in the designated [`PROFILER_MODULE`] and outside the
/// seeded crates (examples, binaries — human-facing timing), never
/// elsewhere within a seeded crate.
pub fn ambient_pragma_allowed(rel: &str) -> bool {
    rel == PROFILER_MODULE || !SEEDED_SCOPES.iter().any(|p| rel.starts_with(p))
}

impl Check {
    /// The kebab-case name used in diagnostics and pragmas.
    pub fn name(self) -> &'static str {
        match self {
            Check::NoHashIter => "no-hash-iter",
            Check::NoAmbientEntropy => "no-ambient-entropy",
            Check::TickMathSaturates => "tick-math-saturates",
            Check::NoLibUnwrap => "no-lib-unwrap",
            Check::NoFloatEq => "no-float-eq",
            Check::NoNarrowingCast => "no-narrowing-cast",
        }
    }

    /// Parses a pragma check name.
    pub fn from_name(s: &str) -> Option<Check> {
        ALL_CHECKS.into_iter().find(|c| c.name() == s)
    }

    /// One-line rationale attached to every diagnostic.
    pub fn why(self) -> &'static str {
        match self {
            Check::NoHashIter => {
                "hash iteration order varies with RandomState/std version; seeded paths must replay byte-identically — use BTreeMap/BTreeSet or index-ordered state"
            }
            Check::NoAmbientEntropy => {
                "wall-clock and OS randomness make runs a function of the machine, not the seed — thread a seeded StdRng or virtual clock through instead"
            }
            Check::TickMathSaturates => {
                "tick arithmetic can overflow u64 under large delays and wrap the event heap's ordering — use saturating_add/saturating_mul"
            }
            Check::NoLibUnwrap => {
                "a library panic tears down whole campaigns and hides the broken invariant — return a typed error or justify the invariant in a pragma"
            }
            Check::NoFloatEq => {
                "exact float equality is representation-dependent and can fork a seeded replay — compare integers, use explicit tolerances, or justify the exact-zero sentinel"
            }
            Check::NoNarrowingCast => {
                "as-casts truncate silently; an index overflow at scale becomes a wrong-but-plausible index — use a checked helper (debug-asserted bound) or justify"
            }
        }
    }

    /// Whether the check applies to `rel`, the forward-slash path of a
    /// source file relative to the scan root.
    pub fn applies_to(self, rel: &str) -> bool {
        let base = rel.rsplit('/').next().unwrap_or(rel);
        match self {
            Check::NoHashIter | Check::NoFloatEq => {
                SEEDED_SCOPES.iter().any(|p| rel.starts_with(p))
            }
            Check::NoAmbientEntropy => !rel.starts_with("crates/bench"),
            Check::TickMathSaturates => {
                matches!(base, "engine.rs" | "faults.rs" | "latency.rs")
            }
            Check::NoLibUnwrap => {
                (rel.starts_with("src/") || rel.contains("/src/"))
                    && !rel.starts_with("crates/bench")
            }
            Check::NoNarrowingCast => {
                // The congest hot path, plus the graph crate since its
                // CSR went u32-indexed: a truncating cast on a node,
                // port, or offset there silently corrupts adjacency at
                // n = 10⁶⁺ — narrowing must route through the checked
                // constructors (`NodeId::new`, `builder::narrow`).
                rel.starts_with("crates/congest/src") || rel.starts_with("crates/graph/src")
            }
        }
    }
}

/// A check hit before pragma filtering (internal to the scan).
#[derive(Clone, Debug)]
pub struct RawFinding {
    /// Which check fired.
    pub check: Check,
    /// 1-indexed source line.
    pub line: u32,
    /// What fired, with the offending identifier(s).
    pub message: String,
}

/// A reported diagnostic: a check violation that no pragma justified.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Check name (kebab-case; `invalid-pragma` for pragma errors).
    pub check: &'static str,
    /// Path relative to the scan root, forward slashes.
    pub file: String,
    /// 1-indexed source line.
    pub line: u32,
    /// What fired.
    pub message: String,
    /// Why this is a hazard.
    pub why: &'static str,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} — {}",
            self.file, self.line, self.check, self.message, self.why
        )
    }
}

/// Aggregate result of scanning one or more roots.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// All surviving findings, in (file, line) order.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Per-check finding counts (zero-count checks included).
    pub counts: BTreeMap<&'static str, usize>,
    /// Per-check pragma-suppressed counts.
    pub suppressed: BTreeMap<&'static str, usize>,
}

impl ScanReport {
    /// Whether the scan is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the report as a JSON object (no external deps; used by
    /// `--format json`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"files_scanned\": ");
        s.push_str(&self.files_scanned.to_string());
        s.push_str(",\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"check\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                json_escape(f.check),
                json_escape(&f.file),
                f.line,
                json_escape(&f.message)
            ));
        }
        s.push_str("\n  ],\n  \"per_check\": {");
        for (i, (name, count)) in self.counts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let suppressed = self.suppressed.get(name).copied().unwrap_or(0);
            s.push_str(&format!(
                "\n    \"{}\": {{\"findings\": {count}, \"suppressed\": {suppressed}}}",
                json_escape(name)
            ));
        }
        s.push_str("\n  }\n}");
        s
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Test-region exclusion
// ---------------------------------------------------------------------

/// Computes which tokens live inside `#[cfg(test)]` / `#[test]` items
/// and returns the token stream with those regions removed.
///
/// An attribute counts as a test attribute when it mentions the
/// identifier `test` and does not mention `not` (so `#[cfg(not(test))]`
/// code *is* scanned). The excluded region runs from the attribute to
/// the end of the annotated item: its matching `}` body, or the first
/// top-level `;` for bodyless items.
pub mod test_regions {
    use super::{Tok, TokKind};

    /// Returns the tokens outside all test regions.
    pub fn strip(toks: &[Tok]) -> Vec<Tok> {
        let mut keep = vec![true; toks.len()];
        let mut i = 0usize;
        while i < toks.len() {
            if toks[i].is_punct("#") && i + 1 < toks.len() && toks[i + 1].is_punct("[") {
                let (attr_end, is_test) = scan_attr(toks, i + 1);
                if is_test {
                    let item_end = item_end(toks, attr_end);
                    for k in keep.iter_mut().take(item_end).skip(i) {
                        *k = false;
                    }
                    i = item_end;
                    continue;
                }
                i = attr_end;
                continue;
            }
            i = i.saturating_add(1);
        }
        toks.iter()
            .zip(keep)
            .filter_map(|(t, k)| if k { Some(t.clone()) } else { None })
            .collect()
    }

    /// Scans an attribute starting at its `[`; returns (index one past
    /// the closing `]`, whether it is a test attribute).
    fn scan_attr(toks: &[Tok], open: usize) -> (usize, bool) {
        let mut depth = 0usize;
        let mut saw_test = false;
        let mut saw_not = false;
        let mut j = open;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct("[") {
                depth += 1;
            } else if t.is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    return (j + 1, saw_test && !saw_not);
                }
            } else if t.kind == TokKind::Ident {
                if t.text == "test" {
                    saw_test = true;
                } else if t.text == "not" {
                    saw_not = true;
                }
            }
            j += 1;
        }
        (toks.len(), saw_test && !saw_not)
    }

    /// Finds the end of the item starting at `from`: one past the
    /// matching `}` of its body, or one past the first `;` outside any
    /// nesting, skipping further attributes along the way.
    fn item_end(toks: &[Tok], from: usize) -> usize {
        let mut j = from;
        let mut paren = 0i64;
        let mut bracket = 0i64;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct("(") {
                paren += 1;
            } else if t.is_punct(")") {
                paren -= 1;
            } else if t.is_punct("[") {
                bracket += 1;
            } else if t.is_punct("]") {
                bracket -= 1;
            } else if paren == 0 && bracket == 0 {
                if t.is_punct(";") {
                    return j + 1;
                }
                if t.is_punct("{") {
                    let mut depth = 0i64;
                    while j < toks.len() {
                        if toks[j].is_punct("{") {
                            depth += 1;
                        } else if toks[j].is_punct("}") {
                            depth -= 1;
                            if depth == 0 {
                                return j + 1;
                            }
                        }
                        j += 1;
                    }
                    return toks.len();
                }
            }
            j += 1;
        }
        toks.len()
    }
}

// ---------------------------------------------------------------------
// Pragmas
// ---------------------------------------------------------------------

/// A parsed `// welle-lint: allow(check[, check]) — justification`.
#[derive(Clone, Debug)]
pub struct Pragma {
    /// 1-indexed line of the pragma comment.
    pub line: u32,
    /// Whether code precedes the pragma on its line: a trailing pragma
    /// covers only its own line, a standalone one covers the next.
    pub trailing: bool,
    /// Valid check names listed in `allow(...)`.
    pub checks: Vec<Check>,
    /// Unknown names listed in `allow(...)` (each is a finding).
    pub unknown: Vec<String>,
    /// Justification text after the closing paren (may be empty —
    /// which is a finding).
    pub justification: String,
}

/// The pragma marker scanned for inside `//` comments.
pub const PRAGMA_MARKER: &str = "welle-lint:";

/// Parses all pragmas out of a file's line comments.
pub fn parse_pragmas(lexed: &Lexed) -> Vec<Pragma> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        // Doc comments are documentation, not suppression: the pragma
        // grammar can be *described* in rustdoc without taking effect.
        if c.text.starts_with("///") || c.text.starts_with("//!") {
            continue;
        }
        let Some(at) = c.text.find(PRAGMA_MARKER) else {
            continue;
        };
        let rest = c.text[at + PRAGMA_MARKER.len()..].trim_start();
        let Some(body) = rest.strip_prefix("allow(") else {
            // A marker without allow(...) is malformed: surface it.
            out.push(Pragma {
                line: c.line,
                trailing: c.trailing,
                checks: Vec::new(),
                unknown: vec![rest.chars().take(24).collect()],
                justification: String::new(),
            });
            continue;
        };
        let (names, after) = match body.split_once(')') {
            Some((n, a)) => (n, a),
            None => (body, ""),
        };
        let mut checks = Vec::new();
        let mut unknown = Vec::new();
        for name in names.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match Check::from_name(name) {
                Some(c) => checks.push(c),
                None => unknown.push(name.to_string()),
            }
        }
        let justification = after
            .trim_start()
            .trim_start_matches(['—', '-', ':', ' '])
            .trim()
            .to_string();
        out.push(Pragma {
            line: c.line,
            trailing: c.trailing,
            checks,
            unknown,
            justification,
        });
    }
    out
}

// ---------------------------------------------------------------------
// Scanning
// ---------------------------------------------------------------------

/// Directory names never descended into: vendored stand-ins, build
/// output, and test trees (`#[cfg(test)]` regions are stripped
/// separately for in-file test modules).
const SKIP_DIRS: [&str; 5] = ["vendor", "target", "tests", ".git", "proptest-regressions"];

/// Recursively collects `.rs` sources under `root`, skipping
/// `SKIP_DIRS` (`vendor/`, `target/`, `tests/`, `.git/`,
/// `proptest-regressions/`), sorted for deterministic reports.
pub fn collect_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Scans a single source text as `rel` (forward-slash relative path),
/// returning surviving findings and per-check suppression counts.
pub fn scan_source(rel: &str, src: &str) -> (Vec<Finding>, BTreeMap<&'static str, usize>) {
    let lexed = lexer::lex(src);
    let live = test_regions::strip(&lexed.toks);
    let pragmas = parse_pragmas(&lexed);

    let mut raw: Vec<RawFinding> = Vec::new();
    for check in ALL_CHECKS {
        if check.applies_to(rel) {
            checks::run(check, &live, &mut raw);
        }
    }

    // One diagnostic per (check, line): repeated hits on one line are
    // one hazard to fix, and pragma suppression is line-granular.
    raw.sort_by_key(|f| (f.line, f.check));
    raw.dedup_by_key(|f| (f.line, f.check));

    let mut suppressed: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut findings: Vec<Finding> = Vec::new();
    for f in raw {
        // Ambient-time suppressions are scope-locked: a pragma cannot
        // excuse wall-clock reads in a seeded crate outside the one
        // sanctioned profiler module.
        let scope_ok = f.check != Check::NoAmbientEntropy || ambient_pragma_allowed(rel);
        let justified = scope_ok
            && pragmas.iter().any(|p| {
                p.checks.contains(&f.check)
                    && !p.justification.is_empty()
                    && if p.trailing {
                        p.line == f.line
                    } else {
                        p.line == f.line || p.line + 1 == f.line
                    }
            });
        if justified {
            *suppressed.entry(f.check.name()).or_insert(0) += 1;
        } else {
            findings.push(Finding {
                check: f.check.name(),
                file: rel.to_string(),
                line: f.line,
                message: f.message,
                why: f.check.why(),
            });
        }
    }
    // Malformed pragmas are findings in their own right — a suppression
    // that names the wrong check or skips the justification is exactly
    // the silent hole this tool exists to close.
    for p in &pragmas {
        for u in &p.unknown {
            findings.push(Finding {
                check: "invalid-pragma",
                file: rel.to_string(),
                line: p.line,
                message: format!("unknown check `{u}` in pragma"),
                why: "pragmas must name real checks; typos would silently suppress nothing",
            });
        }
        if p.unknown.is_empty() && !p.checks.is_empty() && p.justification.is_empty() {
            findings.push(Finding {
                check: "invalid-pragma",
                file: rel.to_string(),
                line: p.line,
                message: "pragma missing justification".to_string(),
                why: "every suppression must say why the hazard does not apply",
            });
        }
    }
    findings.sort_by(|a, b| (a.line, a.check).cmp(&(b.line, b.check)));
    (findings, suppressed)
}

/// Scans every source under `root` and aggregates the report.
///
/// # Errors
///
/// Propagates I/O failures from walking or reading sources.
pub fn scan_root(root: &Path) -> io::Result<ScanReport> {
    let mut report = ScanReport::default();
    for check in ALL_CHECKS {
        report.counts.insert(check.name(), 0);
        report.suppressed.insert(check.name(), 0);
    }
    report.counts.insert("invalid-pragma", 0);
    for path in collect_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&path)?;
        let (findings, suppressed) = scan_source(&rel, &src);
        report.files_scanned += 1;
        for (name, count) in suppressed {
            *report.suppressed.entry(name).or_insert(0) += count;
        }
        for f in &findings {
            *report.counts.entry(f.check).or_insert(0) += 1;
        }
        report.findings.extend(findings);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_regions_are_stripped() {
        let src = "fn lib() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests { fn t() { y.unwrap(); z.unwrap(); } }";
        let (f, _) = scan_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn cfg_not_test_is_scanned() {
        let src = "#[cfg(not(test))]\nfn lib() { x.unwrap(); }";
        let (f, _) = scan_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn pragma_suppresses_same_and_next_line() {
        let src = "// welle-lint: allow(no-lib-unwrap) — invariant: always present\n\
                   x.unwrap();\n\
                   y.unwrap(); // welle-lint: allow(no-lib-unwrap) — bounded above\n\
                   z.unwrap();";
        let (f, sup) = scan_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
        assert_eq!(sup.get("no-lib-unwrap"), Some(&2));
    }

    #[test]
    fn pragma_without_justification_is_a_finding() {
        let src = "// welle-lint: allow(no-lib-unwrap)\nx.unwrap();";
        let (f, _) = scan_source("crates/core/src/x.rs", src);
        assert!(f.iter().any(|f| f.check == "invalid-pragma"), "{f:?}");
    }

    #[test]
    fn pragma_with_unknown_check_is_a_finding() {
        let src = "// welle-lint: allow(no-such-check) — because\nlet a = 1;";
        let (f, _) = scan_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].check, "invalid-pragma");
    }

    #[test]
    fn scoping_keeps_bench_free_of_entropy_check() {
        let src = "let t = Instant::now();";
        let (inside, _) = scan_source("crates/bench/src/x.rs", src);
        assert!(inside.is_empty(), "{inside:?}");
        let (outside, _) = scan_source("crates/core/src/x.rs", src);
        assert_eq!(outside.len(), 1);
    }

    #[test]
    fn ambient_pragmas_only_work_in_the_profiler_module() {
        let src = "// welle-lint: allow(no-ambient-entropy) — looks justified\n\
                   let t = Instant::now();";
        // The designated profiler module may justify wall-clock reads…
        let (prof, sup) = scan_source(super::PROFILER_MODULE, src);
        assert!(prof.is_empty(), "{prof:?}");
        assert_eq!(sup.get("no-ambient-entropy"), Some(&1));
        // …other seeded-crate files cannot, however well-worded the
        // pragma: the finding stands.
        for rel in [
            "crates/congest/src/engine.rs",
            "crates/core/src/runner.rs",
            "crates/walks/src/lib.rs",
        ] {
            let (f, sup) = scan_source(rel, src);
            assert_eq!(f.len(), 1, "{rel}: {f:?}");
            assert_eq!(f[0].check, "no-ambient-entropy", "{rel}");
            assert_eq!(sup.get("no-ambient-entropy"), None, "{rel}");
        }
        // Outside the seeded crates (examples, binaries) the ordinary
        // pragma rules apply.
        let (ex, _) = scan_source("examples/profile.rs", src);
        assert!(ex.is_empty(), "{ex:?}");
    }

    #[test]
    fn json_escapes_and_renders() {
        let mut r = ScanReport::default();
        r.counts.insert("no-lib-unwrap", 1);
        r.findings.push(Finding {
            check: "no-lib-unwrap",
            file: "a \"b\".rs".into(),
            line: 3,
            message: "x\ny".into(),
            why: "",
        });
        let j = r.to_json();
        assert!(j.contains("a \\\"b\\\".rs"));
        assert!(j.contains("x\\ny"));
    }
}
