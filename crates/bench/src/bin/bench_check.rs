//! CI gate over the persisted bench artifacts.
//!
//! ```text
//! bench_check <baseline.json> <candidate.json> [max-regression]
//! bench_check --scan [repo-root]
//! ```
//!
//! `--scan` audits the repo root's `BENCH_*.json` files against the
//! registry of benches CI actually gates: a bench artifact sitting at
//! the root but absent from the registry fails loudly (someone added a
//! persisted bench without wiring its gate), and a registered bench
//! with no full-mode artifact is warned about.
//!
//! The comparison form fails (exit 1) when:
//!
//! * either file is missing or not a valid [`BenchReport`] — a bench
//!   that silently stopped emitting JSON must not pass;
//! * the candidate has no results, or any median is non-finite/≤ 0;
//! * a benchmark present in both reports regressed by more than
//!   `max-regression` × (default 2.0 — generous, because the shim
//!   measures wall clock on shared CI machines);
//! * a comparison row present in both reports lost more than the same
//!   factor of its speedup.
//!
//! New benchmarks (in the candidate but not the baseline) pass — they
//! become part of the baseline when the artifact is checked in. When
//! the two reports were produced in different modes (`quick` vs
//! `full`), numeric comparison is skipped — quick mode shrinks the
//! workload shapes, so the numbers are not commensurable — and only
//! structural validation applies.

use gmdf_bench::report::{read_report, BenchReport};
use std::process::ExitCode;

/// Every bench whose persisted `BENCH_<name>.json` artifact CI gates.
/// `--scan` fails on any root-level bench file not named here.
const REGISTRY: &[&str] = &["analyze", "dispatch", "fleet_server", "trace", "wire"];

/// Audits `root` for `BENCH_*.json` files that no gate covers.
fn scan(root: &std::path::Path) -> ExitCode {
    let entries = match std::fs::read_dir(root) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("bench_check: cannot scan `{}`: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    let mut found: Vec<String> = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(stem) = name
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"))
        {
            found.push(stem.strip_suffix(".quick").unwrap_or(stem).to_owned());
        }
    }
    found.sort();
    found.dedup();
    let unregistered: Vec<&String> = found
        .iter()
        .filter(|name| !REGISTRY.contains(&name.as_str()))
        .collect();
    for name in REGISTRY {
        if !found.iter().any(|f| f == name) {
            println!(
                "bench_check: warning — registered bench `{name}` has no BENCH_{name}.json at `{}`",
                root.display()
            );
        }
    }
    if unregistered.is_empty() {
        println!(
            "bench_check: scan ok — {} bench artifact(s) at `{}`, all registered: {}",
            found.len(),
            root.display(),
            found.join(", ")
        );
        ExitCode::SUCCESS
    } else {
        for name in &unregistered {
            eprintln!(
                "bench_check: FAIL bench artifact `BENCH_{name}.json` at `{}` is not in the gate \
                 registry — add it to REGISTRY in bench_check and wire its CI gate",
                root.display()
            );
        }
        ExitCode::FAILURE
    }
}

fn validate(report: &BenchReport, label: &str) -> Result<(), String> {
    if report.results.is_empty() {
        return Err(format!("{label}: no results recorded"));
    }
    for r in &report.results {
        if !r.median_ns.is_finite() || r.median_ns <= 0.0 {
            return Err(format!(
                "{label}: result `{}` has unusable median {}",
                r.name, r.median_ns
            ));
        }
    }
    for c in &report.comparisons {
        if !c.speedup.is_finite() || c.speedup <= 0.0 {
            return Err(format!(
                "{label}: comparison `{}` has unusable speedup {}",
                c.name, c.speedup
            ));
        }
    }
    Ok(())
}

/// Prints the candidate's comparison rows — the headline speedups —
/// so CI logs show the measured numbers, not just pass/fail.
fn print_comparisons(candidate: &BenchReport) {
    for c in &candidate.comparisons {
        println!(
            "bench_check:   comparison `{}`: baseline {:.0} ns, optimized {:.0} ns — {:.1}x",
            c.name, c.baseline_ns, c.optimized_ns, c.speedup
        );
    }
}

fn check(baseline: &BenchReport, candidate: &BenchReport, max_regress: f64) -> Vec<String> {
    let mut failures = Vec::new();
    if baseline.bench != candidate.bench {
        failures.push(format!(
            "bench mismatch: baseline is `{}`, candidate is `{}`",
            baseline.bench, candidate.bench
        ));
    }
    for b in &baseline.results {
        let Some(c) = candidate.results.iter().find(|c| c.name == b.name) else {
            failures.push(format!("benchmark `{}` disappeared", b.name));
            continue;
        };
        if c.median_ns > b.median_ns * max_regress {
            failures.push(format!(
                "`{}` regressed {:.2}x (baseline {:.0} ns, candidate {:.0} ns, limit {max_regress}x)",
                b.name,
                c.median_ns / b.median_ns,
                b.median_ns,
                c.median_ns,
            ));
        }
    }
    for b in &baseline.comparisons {
        let Some(c) = candidate.comparisons.iter().find(|c| c.name == b.name) else {
            failures.push(format!("comparison `{}` disappeared", b.name));
            continue;
        };
        if c.speedup * max_regress < b.speedup {
            failures.push(format!(
                "comparison `{}` speedup fell from {:.2}x to {:.2}x (limit {max_regress}x loss)",
                b.name, b.speedup, c.speedup,
            ));
        }
    }
    failures
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).is_some_and(|a| a == "--scan") {
        let root = args.get(2).map_or_else(|| ".".to_owned(), Clone::clone);
        return scan(std::path::Path::new(&root));
    }
    let (baseline_path, candidate_path) = match (args.get(1), args.get(2)) {
        (Some(b), Some(c)) => (b.clone(), c.clone()),
        _ => {
            eprintln!(
                "usage: bench_check <baseline.json> <candidate.json> [max-regression]\n       \
                 bench_check --scan [repo-root]"
            );
            return ExitCode::FAILURE;
        }
    };
    let max_regress: f64 = match args.get(3).map(|s| s.parse()) {
        None => 2.0,
        Some(Ok(v)) if v > 1.0 => v,
        Some(_) => {
            eprintln!("max-regression must be a number > 1.0");
            return ExitCode::FAILURE;
        }
    };
    println!("bench_check: gating `{candidate_path}` against baseline `{baseline_path}`");
    let load = |path: &str, label: &str| -> Result<BenchReport, String> {
        let report = read_report(std::path::Path::new(path))?;
        validate(&report, label)?;
        Ok(report)
    };
    let baseline = match load(&baseline_path, "baseline") {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_check: {e}");
            return ExitCode::FAILURE;
        }
    };
    let candidate = match load(&candidate_path, "candidate") {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_check: {e}");
            return ExitCode::FAILURE;
        }
    };
    if baseline.mode != candidate.mode {
        if baseline.bench != candidate.bench {
            eprintln!(
                "bench_check: bench mismatch: baseline is `{}`, candidate is `{}`",
                baseline.bench, candidate.bench
            );
            return ExitCode::FAILURE;
        }
        println!(
            "bench_check: `{}` ok — candidate mode `{}` differs from baseline mode `{}`; \
             structural validation only ({} result(s), {} comparison(s))",
            candidate.bench,
            candidate.mode,
            baseline.mode,
            candidate.results.len(),
            candidate.comparisons.len(),
        );
        print_comparisons(&candidate);
        return ExitCode::SUCCESS;
    }
    let failures = check(&baseline, &candidate, max_regress);
    if failures.is_empty() {
        println!(
            "bench_check: `{}` ok — {} result(s), {} comparison(s), within {max_regress}x of baseline",
            candidate.bench,
            candidate.results.len(),
            candidate.comparisons.len(),
        );
        print_comparisons(&candidate);
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("bench_check: FAIL {f}");
        }
        ExitCode::FAILURE
    }
}
