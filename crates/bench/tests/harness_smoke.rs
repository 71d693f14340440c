//! Smoke tests for the experiment harness: each quick-mode experiment
//! produces a Markdown section with its header, at least one table row,
//! and a well-formed machine-readable record.

use serde::Value;

fn check(id: &str, out: &delta_bench::experiments::ExperimentOutput) {
    let section = &out.markdown;
    assert!(
        section.starts_with(&format!("## {}", id.to_uppercase())),
        "{id}: section must start with its header, got: {:.60}",
        section
    );
    let rows = section.lines().filter(|l| l.starts_with('|')).count();
    assert!(
        rows >= 3,
        "{id}: expected a table with rows, got {rows} pipe lines"
    );

    // The record must carry the documented fields and survive a JSON
    // round trip.
    let json = serde::json::to_string(&out.data);
    let back = serde::json::parse(&json).expect("record is valid JSON");
    assert_eq!(back.field("name").unwrap(), &Value::Str(id.to_string()));
    for field in ["params", "series", "fit", "per_phase_rounds"] {
        back.field(field)
            .unwrap_or_else(|e| panic!("{id}: missing `{field}`: {e}"));
    }
    let Value::Map(series) = back.field("series").unwrap() else {
        panic!("{id}: series must be an object");
    };
    assert!(!series.is_empty(), "{id}: at least one series");
}

#[test]
fn quick_experiments_produce_tables() {
    // The cheap experiments in quick mode; the expensive ones (e1-e3) are
    // exercised by the `experiments` binary runs recorded in EXPERIMENTS.md.
    for (id, f) in delta_bench::experiments::all() {
        if ["e4", "e6", "e7", "e9", "e12"].contains(&id) {
            check(id, &f(true));
        }
    }
}

#[test]
fn pipeline_experiments_record_per_phase_rounds() {
    let (_, e6) = delta_bench::experiments::all()
        .into_iter()
        .find(|(id, _)| *id == "e6")
        .expect("e6 registered");
    let out = e6(true);
    let Value::Map(phases) = out.data.field("per_phase_rounds").unwrap().clone() else {
        panic!("per_phase_rounds must be an object");
    };
    assert!(
        !phases.is_empty(),
        "e6 runs the pipeline, so phases must be recorded"
    );
    assert!(
        phases.iter().any(|(p, _)| p.contains("phase1")),
        "expected a phase1 entry, got {:?}",
        phases.iter().map(|(p, _)| p.as_str()).collect::<Vec<_>>()
    );
}

#[test]
fn experiment_registry_is_complete_and_unique() {
    let all = delta_bench::experiments::all();
    assert_eq!(all.len(), 13);
    let mut ids: Vec<&str> = all.iter().map(|(id, _)| *id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 13, "duplicate experiment ids");
}
