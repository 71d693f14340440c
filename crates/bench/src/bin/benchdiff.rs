//! benchdiff — compare two bench reports case-by-case and gate on
//! regressions.
//!
//! ```text
//! benchdiff ci/baselines/BENCH_executors.smoke.json BENCH_executors.json
//! benchdiff --threshold 200 --summary base.json cand.json
//! ```
//!
//! A bench report (`BENCH_executors.json`, written by the `--json` flag of
//! the executors bench) holds cases: every object inside a sequence that
//! carries a `mean_ns` field is one. Its key is the containing field plus
//! the identifying scalar fields
//! (`cases/topology=clique,n=2000,executor=message,variant=seq`), and its
//! value is `mean_ns`.
//!
//! A case **regresses** when `candidate / baseline > 1 + threshold/100`
//! (default threshold 10%). Exit codes: `0` no regressions, `1` at
//! least one regression, `2` usage error or refused input (unreadable
//! file, or the two reports carry different `schema_version`s). Cases
//! present in only one file are listed but never gate — bench sizes
//! differ between smoke and full mode, and new cases must not fail the
//! gate that introduces them.
//!
//! `--summary` collapses the per-case table to one line (count,
//! regressions, worst ratio) — for CI logs and commit messages.

use std::collections::BTreeMap;

use serde::{json, Value};

const USAGE: &str =
    "usage: benchdiff [--threshold PCT] [--summary] <baseline.json> <candidate.json>";

/// Fields that hold measurements rather than case identity.
const MEASUREMENT_FIELDS: [&str; 2] = ["mean_ns", "min_ns"];

fn main() {
    std::process::exit(run(&std::env::args().skip(1).collect::<Vec<_>>()));
}

fn run(args: &[String]) -> i32 {
    let mut threshold = 10.0f64;
    let mut summary = false;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => match it.next().map(|v| v.parse::<f64>()) {
                Some(Ok(t)) if t >= 0.0 => threshold = t,
                _ => {
                    eprintln!("invalid --threshold value\n{USAGE}");
                    return 2;
                }
            },
            "--summary" => summary = true,
            _ => files.push(a.clone()),
        }
    }

    let [baseline_path, candidate_path] = files.as_slice() else {
        eprintln!("{USAGE}");
        return 2;
    };
    let baseline = match load(baseline_path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let candidate = match load(candidate_path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if let Err(e) = check_schema(&baseline, &candidate) {
        eprintln!("error: {e}");
        return 2;
    }

    let base_cases = extract(&baseline);
    let cand_cases = extract(&candidate);
    if base_cases.is_empty() || cand_cases.is_empty() {
        eprintln!(
            "error: no comparable cases found ({} in baseline, {} in candidate)",
            base_cases.len(),
            cand_cases.len()
        );
        return 2;
    }
    let diff = compare(&base_cases, &cand_cases, threshold);
    let regressions = diff.rows.iter().filter(|r| r.regressed).count();

    if summary {
        // One line for CI logs: count, regressions, and the worst ratio
        // with its case so a red gate is diagnosable without re-running.
        let worst = diff.rows.iter().max_by(|a, b| a.ratio.total_cmp(&b.ratio));
        match worst {
            Some(w) => println!(
                "{} case(s), {regressions} regression(s) past +{threshold}%, \
                 worst {:.2}x ({})",
                diff.rows.len(),
                w.ratio,
                w.key
            ),
            None => println!("0 case(s) matched in both reports"),
        }
        return i32::from(regressions > 0);
    }

    let width = diff
        .rows
        .iter()
        .map(|r| r.key.len())
        .max()
        .unwrap_or(4)
        .max(4);
    println!(
        "{:width$}  {:>14}  {:>14}  {:>7}",
        "case", "baseline", "candidate", "ratio"
    );
    for row in &diff.rows {
        let flag = if row.regressed { "  REGRESSED" } else { "" };
        println!(
            "{:width$}  {:>14.0}  {:>14.0}  {:>6.2}x{flag}",
            row.key, row.baseline, row.candidate, row.ratio
        );
    }
    for key in &diff.only_baseline {
        println!("{key}: only in baseline (skipped)");
    }
    for key in &diff.only_candidate {
        println!("{key}: only in candidate (skipped)");
    }
    println!(
        "{} case(s) compared, {} regression(s) past +{threshold}%",
        diff.rows.len(),
        regressions
    );
    i32::from(regressions > 0)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    json::parse(&text).map_err(|e| format!("cannot parse `{path}`: {e}"))
}

/// Reports carrying different schema versions cannot be compared; a
/// report written before versioning counts as version 1.
fn check_schema(baseline: &Value, candidate: &Value) -> Result<(), String> {
    let version = |v: &Value| match v.field("schema_version") {
        Ok(Value::U64(n)) => Ok(*n),
        Ok(other) => Err(format!("schema_version is {other:?}, expected an integer")),
        Err(_) => Ok(1),
    };
    let b = version(baseline)?;
    let c = version(candidate)?;
    if b != c {
        return Err(format!(
            "schema mismatch: baseline is version {b}, candidate is version {c}; \
             regenerate the baseline with this build before comparing"
        ));
    }
    Ok(())
}

fn scalar(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

/// Flattens a report into `case key -> value`: every bench case carrying
/// `mean_ns`.
fn extract(report: &Value) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    collect_cases("", report, &mut out);
    out
}

/// Walks a bench report: a map object inside any sequence that carries
/// `mean_ns` is a case, keyed by its path and identifying scalar fields
/// in report order.
fn collect_cases(prefix: &str, v: &Value, out: &mut BTreeMap<String, f64>) {
    match v {
        Value::Map(entries) => {
            for (k, child) in entries {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                collect_cases(&path, child, out);
            }
        }
        Value::Seq(items) => {
            for item in items {
                let Value::Map(fields) = item else { continue };
                let Some(value) = fields
                    .iter()
                    .find(|(k, _)| k == "mean_ns")
                    .and_then(|(_, v)| scalar(v))
                else {
                    continue;
                };
                let identity: Vec<String> = fields
                    .iter()
                    .filter(|(k, _)| !MEASUREMENT_FIELDS.contains(&k.as_str()))
                    .filter_map(|(k, v)| match v {
                        Value::Str(s) => Some(format!("{k}={s}")),
                        Value::Bool(b) => Some(format!("{k}={b}")),
                        other => scalar(other).map(|x| format!("{k}={x}")),
                    })
                    .collect();
                out.insert(format!("{prefix}/{}", identity.join(",")), value);
            }
        }
        _ => {}
    }
}

struct DiffRow {
    key: String,
    baseline: f64,
    candidate: f64,
    ratio: f64,
    regressed: bool,
}

struct Diff {
    rows: Vec<DiffRow>,
    only_baseline: Vec<String>,
    only_candidate: Vec<String>,
}

fn compare(base: &BTreeMap<String, f64>, cand: &BTreeMap<String, f64>, threshold: f64) -> Diff {
    let limit = 1.0 + threshold / 100.0;
    let mut rows = Vec::new();
    let mut only_baseline = Vec::new();
    for (key, &b) in base {
        match cand.get(key) {
            None => only_baseline.push(key.clone()),
            Some(&c) => {
                // 0 -> 0 is unchanged; 0 -> anything positive always
                // regresses (no finite threshold can cover it).
                let ratio = if b == 0.0 {
                    if c == 0.0 {
                        1.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    c / b
                };
                rows.push(DiffRow {
                    key: key.clone(),
                    baseline: b,
                    candidate: c,
                    ratio,
                    regressed: ratio > limit,
                });
            }
        }
    }
    let only_candidate = cand
        .keys()
        .filter(|k| !base.contains_key(*k))
        .cloned()
        .collect();
    Diff {
        rows,
        only_baseline,
        only_candidate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_report(cases: &[(&str, u64, u64)]) -> Value {
        Value::Map(vec![
            ("schema_version".to_string(), Value::U64(1)),
            ("mode".to_string(), Value::Str("smoke".to_string())),
            (
                "cases".to_string(),
                Value::Seq(
                    cases
                        .iter()
                        .map(|(name, mean, min)| {
                            Value::Map(vec![
                                ("topology".to_string(), Value::Str((*name).to_string())),
                                ("n".to_string(), Value::U64(100)),
                                ("mean_ns".to_string(), Value::U64(*mean)),
                                ("min_ns".to_string(), Value::U64(*min)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn cases_key_on_identity_fields() {
        let cases = extract(&bench_report(&[("clique", 1000, 900)]));
        assert_eq!(cases.len(), 1);
        assert_eq!(cases["cases/topology=clique,n=100"], 1000.0);
    }

    #[test]
    fn injected_regression_is_flagged_and_noise_is_not() {
        let base = extract(&bench_report(&[
            ("clique", 1000, 900),
            ("sparse", 2000, 1800),
        ]));
        // clique +50% (regression past 10%), sparse +5% (within noise).
        let cand = extract(&bench_report(&[
            ("clique", 1500, 1300),
            ("sparse", 2100, 1900),
        ]));
        let diff = compare(&base, &cand, 10.0);
        assert_eq!(diff.rows.len(), 2);
        let flagged: Vec<_> = diff
            .rows
            .iter()
            .filter(|r| r.regressed)
            .map(|r| r.key.as_str())
            .collect();
        assert_eq!(flagged, ["cases/topology=clique,n=100"]);
    }

    #[test]
    fn unmatched_cases_never_gate() {
        let base = extract(&bench_report(&[("clique", 1000, 900)]));
        let cand = extract(&bench_report(&[("sparse", 9000, 8000)]));
        let diff = compare(&base, &cand, 10.0);
        assert!(diff.rows.is_empty());
        assert_eq!(diff.only_baseline.len(), 1);
        assert_eq!(diff.only_candidate.len(), 1);
    }

    #[test]
    fn schema_mismatch_is_refused_and_missing_version_is_v1() {
        let v1 = bench_report(&[]);
        let mut v2 = bench_report(&[]);
        if let Value::Map(entries) = &mut v2 {
            entries[0].1 = Value::U64(2);
        }
        assert!(check_schema(&v1, &v2).is_err());
        let unversioned = Value::Map(vec![("cases".to_string(), Value::Seq(vec![]))]);
        assert!(check_schema(&v1, &unversioned).is_ok());
        assert!(check_schema(&v2, &unversioned).is_err());
    }

    #[test]
    fn zero_baseline_handling() {
        let mut base = BTreeMap::new();
        base.insert("a".to_string(), 0.0);
        base.insert("b".to_string(), 0.0);
        let mut cand = BTreeMap::new();
        cand.insert("a".to_string(), 0.0);
        cand.insert("b".to_string(), 5.0);
        let diff = compare(&base, &cand, 50.0);
        assert!(!diff.rows[0].regressed, "0 -> 0 is unchanged");
        assert!(diff.rows[1].regressed, "0 -> 5 always regresses");
    }
}
