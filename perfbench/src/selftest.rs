//! Self-test of the benchmark on a tiny shape: every metric prints
//! with its unit and matches `BENCHMARK.json`, corrupted outputs are
//! reported as failures, and the same seed gives identical counts.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crate::common::{Outcome, Rng, Shape};
use crate::fixtures::{live_plans, travel_plans};
use crate::{run_workload, END_TO_END, EXACT_COUNTS, PER_LAYER, WORKLOADS};
use gmdf_engine::TraceEntry;

fn read(relative: &str) -> String {
    let path = format!("{}/{relative}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn tables_match_benchmark_json_and_layer_notes() {
    let benchmark = read("../BENCHMARK.json");
    let layers = read("layers.json");
    for &(name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let row = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(benchmark.contains(&row), "BENCHMARK.json lacks {row}");
    }
    let rows = benchmark.matches("\"unit\":").count();
    assert_eq!(
        rows,
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json rows"
    );
    for &(name, _) in &PER_LAYER {
        assert!(
            layers.contains(&format!("\"{name}\": {{\"moves\"")),
            "layers.json lacks {name}"
        );
    }
    for workload in WORKLOADS {
        assert!(benchmark.contains(&format!("{{\"name\": \"{workload}\", \"why\"")));
        assert!(layers.contains(&format!("\"{workload}\": {{")));
    }
}

fn assert_prints_every_metric(out: &Outcome, table: &[(&str, &str)]) {
    let line = out.to_json();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    for &(name, unit) in table {
        let metric = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&metric)
            .unwrap_or_else(|| panic!("{name} missing: {line}"));
        let rest = &line[at + metric.len()..];
        let value_end = rest.find(',').expect("value is followed by its unit");
        assert!(rest[..value_end].parse::<f64>().is_ok(), "{name}: {rest}");
        assert!(
            rest[value_end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
            "{name} unit: {rest}"
        );
    }
    assert_eq!(out.metrics.len(), table.len());
}

#[test]
fn every_metric_prints_with_its_unit() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let out = run_workload(workload, 3, 1, Shape::Tiny, trace);
            assert!(out.correct(), "{workload}: {:?}", out.failures);
            let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            assert_prints_every_metric(&out, table);
        }
    }
}

#[test]
fn same_seed_gives_identical_counts() {
    for workload in WORKLOADS {
        let counts = |out: Outcome| -> Vec<(String, f64)> {
            out.metrics
                .into_iter()
                .filter(|(name, _, _)| EXACT_COUNTS.contains(&name.as_str()))
                .map(|(name, value, _)| (name, value))
                .collect()
        };
        let first = counts(run_workload(workload, 11, 1, Shape::Tiny, true));
        let second = counts(run_workload(workload, 11, 1, Shape::Tiny, true));
        assert_eq!(first.len(), EXACT_COUNTS.len());
        assert_eq!(first, second, "{workload}");
        assert!(
            first
                .iter()
                .any(|(n, v)| n == "engine.trace_entries" && *v > 0.0),
            "{workload} did some work"
        );
    }
}

#[test]
fn corrupted_live_digest_is_a_failure() {
    let spec = live_plans(5, Shape::Tiny)[0].spec();
    let horizon_ns = 50_000_000;
    let mut session = spec.build().expect("builds");
    session.run_for(horizon_ns).expect("runs");
    let entries: Vec<TraceEntry> = session.engine().trace().entries();
    let len = Some(entries.len() as u64);
    assert!(entries.len() > 4);

    let mut clean = crate::live::Received::default();
    entries.iter().for_each(|e| clean.accept(e));
    let mut out = Outcome::default();
    crate::live::check_delivered(&spec, horizon_ns, &clean, len, &mut out);
    assert!(out.correct(), "{:?}", out.failures);

    let mut corrupted = crate::live::Received::default();
    for (i, e) in entries.iter().enumerate() {
        let mut e = e.clone();
        if i == 3 {
            e.event.time_ns += 1;
        }
        corrupted.accept(&e);
    }
    let mut out = Outcome::default();
    crate::live::check_delivered(&spec, horizon_ns, &corrupted, len, &mut out);
    assert_eq!(out.failed, 1, "{:?}", out.failures);
}

#[test]
fn corrupted_time_travel_answer_is_a_failure() {
    use crate::travel::{check, Answer};
    let spec = travel_plans(5, Shape::Tiny)[0].spec();
    let t_ns = 40_000_000;
    let mut session = spec.build().expect("builds");
    session.run_for(t_ns).expect("runs");
    let answer = |trace_len| Answer::Seek {
        now_ns: t_ns,
        trace_len,
        state: session.engine().state(),
    };
    let len = session.engine().trace().len() as u64;
    let mut out = Outcome::default();
    let specs = std::slice::from_ref(&spec);
    check(specs, &[(0, answer(len))], &mut Rng::new(1), &mut out);
    assert!(out.correct(), "{:?}", out.failures);
    let mut out = Outcome::default();
    check(specs, &[(0, answer(len + 1))], &mut Rng::new(1), &mut out);
    assert_eq!(out.failed, 1);
}

#[test]
fn corrupted_sparse_counters_are_a_failure() {
    use crate::sparse::{check, epoch};
    let mut e = epoch(9, Shape::Tiny, false);
    let mut out = Outcome::default();
    check(&e, &mut out);
    assert!(out.correct(), "{:?}", out.failures);
    e.served[0].1 += 1;
    let mut out = Outcome::default();
    check(&e, &mut out);
    assert_eq!(out.failed, 1);
}
