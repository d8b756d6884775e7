//! `welle-lint` CLI: scan the workspace (or given roots) for
//! determinism-contract violations.
//!
//! ```text
//! cargo run -p welle-lint -- [--check] [--format text|json] [--quiet] [PATH...]
//! ```
//!
//! With no `PATH`, scans the current directory (the workspace root when
//! run via `cargo run` from the root). `--check` exits nonzero when any
//! finding survives pragma filtering — that is the CI mode.

use std::path::PathBuf;
use std::process::ExitCode;

use welle_lint::{scan_root, ScanReport, ALL_CHECKS};

struct Args {
    check: bool,
    json: bool,
    quiet: bool,
    roots: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        check: false,
        json: false,
        quiet: false,
        roots: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => args.check = true,
            "--quiet" | "-q" => args.quiet = true,
            "--format" => match it.next().as_deref() {
                Some("json") => args.json = true,
                Some("text") => args.json = false,
                other => return Err(format!("--format expects `text` or `json`, got {other:?}")),
            },
            "--help" | "-h" => {
                println!(
                    "welle-lint — determinism-contract static analyzer\n\n\
                     USAGE: welle-lint [--check] [--format text|json] [--quiet] [PATH...]\n\n\
                     --check          exit 1 if any finding survives pragma filtering\n\
                     --format json    machine-readable report on stdout\n\
                     --quiet          suppress the per-check stats table\n\n\
                     Checks: {}",
                    ALL_CHECKS
                        .iter()
                        .map(|c| c.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path => args.roots.push(PathBuf::from(path)),
        }
    }
    if args.roots.is_empty() {
        args.roots.push(PathBuf::from("."));
    }
    Ok(args)
}

fn merge(into: &mut ScanReport, from: ScanReport) {
    into.files_scanned += from.files_scanned;
    into.findings.extend(from.findings);
    for (k, v) in from.counts {
        *into.counts.entry(k).or_insert(0) += v;
    }
    for (k, v) in from.suppressed {
        *into.suppressed.entry(k).or_insert(0) += v;
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("welle-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let mut report = ScanReport::default();
    for root in &args.roots {
        match scan_root(root) {
            Ok(r) => merge(&mut report, r),
            Err(e) => {
                eprintln!("welle-lint: failed to scan {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    }

    if args.json {
        println!("{}", report.to_json());
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        if !args.quiet {
            eprintln!(
                "welle-lint: {} file(s), {} finding(s)",
                report.files_scanned,
                report.findings.len()
            );
            for (name, count) in &report.counts {
                let sup = report.suppressed.get(name).copied().unwrap_or(0);
                if *count > 0 || sup > 0 {
                    eprintln!("  {name:<22} {count:>4} finding(s)  {sup:>4} justified");
                }
            }
            if report.findings.iter().all(|_| false) && report.counts.values().all(|&c| c == 0) {
                eprintln!("  clean — every check at zero findings");
            }
        }
    }

    if args.check && !report.is_clean() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
