//! The repository benchmark: drives the whole debug stack through its
//! public APIs (workflow → codegen → simulator → channel → engine +
//! trace store → debug server → wire) on three seeded workloads and
//! prints one JSON result line.
//!
//! ```text
//! perfbench --workload <live_fleet|sparse_fleet|time_travel> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! per-layer pass and prints the per-layer metrics. Every run checks
//! the program's outputs; a failed check prints `"correct": false` and
//! exits with code 1.

mod common;
mod fixtures;
mod live;
#[cfg(test)]
mod selftest;
mod sparse;
mod traced;
mod travel;

use common::{Outcome, Shape};

pub const WORKLOADS: [&str; 3] = ["live_fleet", "sparse_fleet", "time_travel"];

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("events_per_s", "1/s"),
    ("target_rtf", "s/s"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("codegen.compile_ms", "ms"),
    ("analyze.ms", "ms"),
    ("server.add_session_ms", "ms"),
    ("target.busy_s", "s"),
    ("target.memo_hits", "count"),
    ("target.memo_hit_frac", "fraction"),
    ("core.uart_drain_s", "s"),
    ("core.decode_s", "s"),
    ("core.uart_bytes", "count"),
    ("core.crc_errors", "count"),
    ("engine.feed_s", "s"),
    ("engine.trace_entries", "count"),
    ("engine.store_append_s", "s"),
    ("engine.checkpoint_s", "s"),
    ("engine.checkpoints", "count"),
    ("engine.disk_bytes_per_entry", "B"),
    ("engine.replayed_entries", "count"),
    ("engine.replayed_per_query", "count"),
    ("server.publish_s", "s"),
    ("server.encode_s", "s"),
    ("server.decode_s", "s"),
    ("server.wire_bytes", "count"),
    ("server.wire_bytes_per_entry", "B"),
    ("server.lagged_drops", "count"),
    ("server.delivered_frac", "fraction"),
    ("server.queue_depth_max", "count"),
    ("server.seek_to_p50_ms", "ms"),
    ("server.step_back_p50_ms", "ms"),
    ("server.replay_window_p50_ms", "ms"),
    ("server.fetch_range_p50_ms", "ms"),
    ("server.run_for_append_p50_ms", "ms"),
    ("loadgen.late_p95_ms", "ms"),
    ("traced.e2e_s", "s"),
    ("unattributed_frac", "fraction"),
    ("trace_overhead_frac", "fraction"),
];

/// The per-layer metrics that are exact counts (or ratios of them):
/// two runs with the same seed give identical values, so a change can
/// cite them as counts.
pub const EXACT_COUNTS: [&str; 12] = [
    "target.memo_hits",
    "target.memo_hit_frac",
    "core.uart_bytes",
    "core.crc_errors",
    "engine.trace_entries",
    "engine.checkpoints",
    "engine.disk_bytes_per_entry",
    "engine.replayed_entries",
    "engine.replayed_per_query",
    "server.wire_bytes",
    "server.wire_bytes_per_entry",
    "server.lagged_drops",
];

/// Runs one workload and orders its metrics as the tables above,
/// filling a layer the workload never touches with 0.
pub fn run_workload(name: &str, seed: u64, seconds: u64, shape: Shape, trace: bool) -> Outcome {
    let mut out = match name {
        "live_fleet" => live::run(seed, seconds, shape, trace),
        "sparse_fleet" => sparse::run(seed, seconds, shape, trace),
        "time_travel" => travel::run(seed, seconds, shape, trace),
        other => panic!("unknown workload {other:?} (expected one of {WORKLOADS:?})"),
    };
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut measured = std::mem::take(&mut out.metrics);
    for &(metric, unit) in table {
        let value = measured
            .iter()
            .position(|(n, _, _)| n == metric)
            .map_or(0.0, |i| measured.swap_remove(i).1);
        out.metrics.push((metric.to_owned(), value, unit));
    }
    assert!(
        measured.is_empty(),
        "metrics missing from the tables: {measured:?}"
    );
    out
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| usage())
    };
    let workload = arg("--workload");
    if !WORKLOADS.contains(&workload.as_str()) {
        usage();
    }
    let number = |flag: &str| arg(flag).parse::<u64>().unwrap_or_else(|_| usage());
    let (seed, seconds, trace) = (number("--seed"), number("--seconds"), number("--trace"));
    if seconds == 0 || trace > 1 {
        usage();
    }
    let out = run_workload(&workload, seed, seconds, Shape::Full, trace == 1);
    for failure in &out.failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    println!("{}", out.to_json());
    if !out.correct() {
        std::process::exit(1);
    }
}
