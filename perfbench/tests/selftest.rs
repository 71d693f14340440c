//! Self-test of the benchmark at a tiny size: every metric named in
//! `BENCHMARK.json` is emitted with its unit on every workload, the
//! result line is valid JSON, and an injected wrong coloring is counted
//! as a failed operation.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use perfbench::{run, RunConfig, RunReport, Scale, END_TO_END, PER_LAYER, WORKLOADS};
use serde::json;
use serde::Value;

fn tiny(workload: &str, trace: bool, inject_wrong: bool) -> RunReport {
    run(&RunConfig {
        workload: workload.to_string(),
        seed: 3,
        seconds: 0.3,
        trace,
        scale: Scale::Tiny,
        inject_wrong,
    })
    .unwrap_or_else(|e| panic!("{workload}: {e}"))
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_field<'a>(v: &'a Value, name: &str) -> &'a str {
    match v.field(name) {
        Ok(Value::Str(s)) => s,
        other => panic!("field `{name}` is not a string: {other:?}"),
    }
}

fn seq<'a>(v: &'a Value, name: &str) -> &'a [Value] {
    match v.field(name) {
        Ok(Value::Seq(items)) => items,
        other => panic!("field `{name}` is not a list: {other:?}"),
    }
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    seq(&benchmark_json(), section)
        .iter()
        .map(|m| {
            (
                str_field(m, "name").to_string(),
                str_field(m, "unit").to_string(),
            )
        })
        .collect()
}

/// `(name, unit)` of every metric in a result line, checking its shape.
fn emitted(report: &RunReport) -> Vec<(String, String)> {
    let line = json::parse(&report.to_json()).expect("result line parses");
    for key in ["correct", "attempted", "failed"] {
        line.field(key).expect("result key present");
    }
    let Ok(Value::Map(metrics)) = line.field("metrics") else {
        panic!("metrics is not an object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                matches!(m.field("value"), Ok(Value::F64(_))),
                "{name} has no numeric value"
            );
            (name.clone(), str_field(m, "unit").to_string())
        })
        .collect()
}

fn names(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn declared_metrics_match_the_code() {
    assert_eq!(declared("end_to_end"), names(END_TO_END));
    assert_eq!(declared("per_layer"), names(PER_LAYER));
    let bench = benchmark_json();
    let workloads: Vec<&str> = seq(&bench, "workloads")
        .iter()
        .map(|w| str_field(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for &workload in WORKLOADS {
        let untraced = tiny(workload, false, false);
        assert!(untraced.correct, "{workload}: {:?}", untraced.notes);
        assert_eq!(untraced.failed, 0, "{workload}");
        assert_eq!(emitted(&untraced), declared("end_to_end"), "{workload}");
        for &(name, value, _) in &untraced.metrics {
            assert!(
                value > 0.0,
                "{workload}: end-to-end metric {name} is {value}"
            );
        }

        // A traced run is correct only when every traced operation
        // validated and its per-layer rounds summed to the ledger total.
        let traced = tiny(workload, true, false);
        assert!(traced.correct, "{workload}: {:?}", traced.notes);
        assert_eq!(emitted(&traced), declared("per_layer"), "{workload}");
    }
}

#[test]
fn a_wrong_coloring_counts_as_failed() {
    for &workload in WORKLOADS {
        for trace in [false, true] {
            let report = tiny(workload, trace, true);
            assert!(!report.correct, "{workload} trace={trace}");
            assert_eq!(report.failed, report.attempted, "{workload} trace={trace}");
            if !trace {
                let ok_rate = report
                    .metrics
                    .iter()
                    .find(|m| m.0 == "ok_rate")
                    .expect("ok_rate emitted")
                    .1;
                assert_eq!(ok_rate, 0.0, "{workload}: fail rate must be 1");
            }
        }
    }
}
