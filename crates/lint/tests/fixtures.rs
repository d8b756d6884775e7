//! Fixture tests: every check must fire on its known-bad fixture, stay
//! silent on the known-good mirror, and the real workspace must scan
//! clean (the same invariant CI enforces via `welle-lint --check`).
//!
//! The fixture trees are shaped like a miniature workspace
//! (`crates/congest/src/...`) so the path-scoped checks apply to them
//! exactly as they do to the real crates.

use std::path::{Path, PathBuf};

use welle_lint::{scan_root, ScanReport};

fn fixture(which: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(which)
}

fn scan(which: &str) -> ScanReport {
    scan_root(&fixture(which)).expect("fixture tree scans")
}

/// Findings for `check` in `file` (path relative to the fixture root).
fn hits<'r>(report: &'r ScanReport, check: &str, file: &str) -> Vec<&'r welle_lint::Finding> {
    report
        .findings
        .iter()
        .filter(|f| f.check == check && f.file == file)
        .collect()
}

#[test]
fn every_check_fires_on_its_bad_fixture() {
    let report = scan("bad");
    let expect = [
        ("no-hash-iter", "crates/congest/src/hash_iter.rs", 2),
        ("no-ambient-entropy", "crates/congest/src/entropy.rs", 1),
        ("tick-math-saturates", "crates/congest/src/engine.rs", 2),
        ("no-lib-unwrap", "crates/congest/src/unwraps.rs", 2),
        ("no-float-eq", "crates/congest/src/float_eq.rs", 2),
        ("no-narrowing-cast", "crates/congest/src/casts.rs", 1),
        ("invalid-pragma", "crates/congest/src/bad_pragma.rs", 2),
    ];
    for (check, file, at_least) in expect {
        let found = hits(&report, check, file);
        assert!(
            found.len() >= at_least,
            "{check} found {} finding(s) in {file}, expected >= {at_least}; all: {:#?}",
            found.len(),
            report.findings
        );
    }
    assert!(!report.is_clean());
}

#[test]
fn findings_carry_line_message_and_why() {
    let report = scan("bad");
    for f in &report.findings {
        assert!(f.line >= 1, "finding without a line: {f:?}");
        assert!(!f.message.is_empty(), "finding without a message: {f:?}");
        assert!(!f.why.is_empty(), "finding without a why: {f:?}");
        let rendered = f.to_string();
        assert!(
            rendered.contains(&format!("{}:{}", f.file, f.line)),
            "diagnostic must lead with file:line, got: {rendered}"
        );
    }
}

#[test]
fn bad_fixture_findings_do_not_cross_files() {
    // Each bad fixture is crafted to violate exactly one check (plus the
    // pragma fixture); a finding from check A inside check B's fixture
    // would be a false positive.
    let report = scan("bad");
    let paired = [
        ("no-hash-iter", "hash_iter.rs"),
        ("no-ambient-entropy", "entropy.rs"),
        ("tick-math-saturates", "engine.rs"),
        ("no-lib-unwrap", "unwraps.rs"),
        ("no-float-eq", "float_eq.rs"),
        ("no-narrowing-cast", "casts.rs"),
        ("invalid-pragma", "bad_pragma.rs"),
    ];
    for f in &report.findings {
        let home = paired
            .iter()
            .find(|(check, _)| *check == f.check)
            .map(|(_, file)| *file)
            .unwrap_or_else(|| panic!("finding from unknown check: {f:?}"));
        assert!(f.file.ends_with(home), "cross-file false positive: {f}");
    }
}

#[test]
fn good_fixture_scans_clean_with_one_justified_pragma() {
    let report = scan("good");
    assert!(
        report.is_clean(),
        "good fixtures must be finding-free, got: {:#?}",
        report.findings
    );
    // The justified `head()` pragma in unwraps.rs is counted, proving
    // suppressions are tracked rather than silently discarded.
    assert_eq!(
        report.suppressed.get("no-lib-unwrap").copied().unwrap_or(0),
        1,
        "expected exactly one justified no-lib-unwrap suppression"
    );
    // The profiler-module fixture's ambient-time pragma is honored —
    // the one sanctioned seeded-path wall-clock site.
    assert_eq!(
        report
            .suppressed
            .get("no-ambient-entropy")
            .copied()
            .unwrap_or(0),
        1,
        "expected exactly one justified no-ambient-entropy suppression"
    );
}

#[test]
fn the_workspace_itself_is_lint_clean() {
    // crates/lint/ -> crates/ -> workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("manifest dir has a workspace root");
    assert!(
        root.join("Cargo.toml").is_file(),
        "workspace root not where expected: {}",
        root.display()
    );
    let report = scan_root(root).expect("workspace scans");
    assert!(
        report.is_clean(),
        "the workspace must satisfy its own determinism contract; findings: {:#?}",
        report.findings
    );
    assert!(report.files_scanned > 50, "suspiciously small scan");
}

#[test]
fn json_report_is_well_formed_enough_for_ci() {
    let json = scan("bad").to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    for key in ["\"findings\"", "\"files_scanned\"", "\"per_check\""] {
        assert!(json.contains(key), "missing {key} in: {json}");
    }
    assert!(json.contains("no-hash-iter"));
}
