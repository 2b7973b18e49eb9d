//! Perf-regression gate over the committed bench artifacts.
//!
//! Usage:
//! `perf_gate --baseline <old.json> --fresh <new.json> [--max-ratio 1.5] [--min-ms 5.0]
//!  [--json <report.json>]`
//!
//! `--json` additionally writes a machine-readable report (per-series
//! old/new/ratio plus the failure list) through the workspace's hand-rolled
//! JSON. On gate failure, if JSONL traces sit next to the two artifacts
//! (`TRACE_lp.jsonl` / `TRACE_online.jsonl`), the gate prints a per-span
//! self-time diff sorted worst-offender-first, so the console points at the
//! phase that slowed down, not just the benchmark that did.
//!
//! Compares the freshly regenerated `results/BENCH_lp.json` /
//! `results/BENCH_online.json` against the committed baseline and fails
//! (exit 1) if any matched timing series slowed down by more than
//! `--max-ratio` (default 1.5×). Timings where **both** sides are under
//! the `--min-ms` floor (default 5 ms) are reported but never fail the
//! gate: at that scale the wall clock measures scheduler noise, not the
//! solver.
//!
//! Extracted series per schema:
//! * `coflow-lp-bench/v2` — `points[].wall_ms_median` keyed by point
//!   name plus backend (the same point is measured under several
//!   configurations), and `colgen_vs_eager[].colgen_wall_ms` keyed by
//!   name. Additionally enforces (fresh file only, no baseline needed)
//!   that the acceptance points `transport/500`, `fat_tree_k8`, and
//!   `fat_tree_k16` keep colgen at or below eager wall time
//!   (`speedup >= 1.0`), and two cross-file pricing guards: the fresh
//!   `transport/500[sparse-lu-parallel]` point must price at least 2×
//!   faster than the *baseline* serial `transport/500` `pricing_ms`, and
//!   the fresh `fat_tree_k16/8[sparse-lu-colgen-parallel]` point must
//!   solve cold in under one second. The 2× pricing cut is delivered by
//!   the candidate list, not by threads: transport/500 has m = 1000 rows,
//!   so its 4m = 4000-column refill window stays under the solver's
//!   4096-column threshold for sectioned scans and runs serially at any
//!   thread count.
//! * `coflow-online-bench/v1` — `points[].policies[].total_resolve_ms`
//!   keyed by `rate=<r>/<policy>`.
//!
//! Series present on only one side (new or retired benchmarks) are
//! reported as informational and skipped.

use std::process::ExitCode;

use coflow_workloads::io::{parse_json, read_trace_lines, Value};

struct Args {
    baseline: String,
    fresh: String,
    max_ratio: f64,
    min_ms: f64,
    json: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut baseline = None;
    let mut fresh = None;
    let mut max_ratio = 1.5;
    let mut min_ms = 5.0;
    let mut json = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--baseline" => baseline = Some(val("--baseline")?),
            "--fresh" => fresh = Some(val("--fresh")?),
            "--max-ratio" => {
                max_ratio = val("--max-ratio")?
                    .parse()
                    .map_err(|e| format!("--max-ratio: {e}"))?;
            }
            "--min-ms" => {
                min_ms = val("--min-ms")?
                    .parse()
                    .map_err(|e| format!("--min-ms: {e}"))?;
            }
            "--json" => json = Some(val("--json")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        baseline: baseline.ok_or("--baseline is required")?,
        fresh: fresh.ok_or("--fresh is required")?,
        max_ratio,
        min_ms,
        json,
    })
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("failed to read {path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("failed to parse {path}: {e}"))
}

fn num(v: &Value, key: &str) -> Option<f64> {
    match v.lookup(key) {
        Some(Value::Num(n)) => Some(*n),
        _ => None,
    }
}

fn text<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.lookup(key) {
        Some(Value::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn arr<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.lookup(key) {
        Some(Value::Arr(items)) => items,
        _ => &[],
    }
}

/// Flattens one bench artifact into `(series label, wall ms)` pairs.
fn extract_series(doc: &Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    match text(doc, "schema") {
        Some(s) if s.starts_with("coflow-lp-bench/") => {
            for p in arr(doc, "points") {
                if let (Some(name), Some(ms)) = (text(p, "name"), num(p, "wall_ms_median")) {
                    // The same point name can appear under several
                    // configurations (serial, 4 threads, colgen) — the
                    // `backend` tag is part of the series identity.
                    let backend = text(p, "backend").unwrap_or("default");
                    out.push((format!("{name}[{backend}]"), ms));
                }
            }
            for p in arr(doc, "colgen_vs_eager") {
                if let (Some(name), Some(ms)) = (text(p, "name"), num(p, "colgen_wall_ms")) {
                    out.push((format!("colgen/{name}"), ms));
                }
            }
        }
        Some(s) if s.starts_with("coflow-online-bench/") => {
            for p in arr(doc, "points") {
                let Some(rate) = num(p, "arrival_rate") else {
                    continue;
                };
                for pol in arr(p, "policies") {
                    if let (Some(name), Some(ms)) =
                        (text(pol, "policy"), num(pol, "total_resolve_ms"))
                    {
                        out.push((format!("rate={rate}/{name}"), ms));
                    }
                }
            }
        }
        other => {
            eprintln!("warning: unrecognized schema {other:?}; no series extracted");
        }
    }
    out
}

/// Finds a measurement point by name suffix and exact backend tag.
fn find_point<'a>(doc: &'a Value, name: &str, backend: &str) -> Option<&'a Value> {
    arr(doc, "points").iter().find(|p| {
        text(p, "name").is_some_and(|n| n.ends_with(name)) && text(p, "backend") == Some(backend)
    })
}

/// The pricing acceptance guards (LP artifacts only):
///
/// * the fresh 4-thread `transport/500` point must cut `pricing_ms` at
///   least 2× against the **baseline** serial `transport/500` point (the
///   committed artifact) — a cut that comes from the candidate list
///   alone, since transport/500's refill window never sections, and
/// * the fresh fat-tree k=16 width-8 colgen point must solve cold in
///   under one second of wall clock.
fn parallel_acceptance(baseline: &Value, fresh: &Value) -> Vec<String> {
    const PRICING_SPEEDUP_MIN: f64 = 2.0;
    const K16_COLGEN_MAX_MS: f64 = 1000.0;
    let mut failures = Vec::new();
    if !text(fresh, "schema").is_some_and(|s| s.starts_with("coflow-lp-bench/")) {
        return failures;
    }
    let pricing = |doc: &Value, backend: &str| {
        find_point(doc, "transport/500", backend)
            .and_then(|p| p.lookup("stats"))
            .and_then(|s| num(s, "pricing_ms"))
    };
    match (
        pricing(baseline, "sparse-lu"),
        pricing(fresh, "sparse-lu-parallel"),
    ) {
        (Some(base_ms), Some(par_ms)) if par_ms > 0.0 => {
            let speedup = base_ms / par_ms;
            if speedup < PRICING_SPEEDUP_MIN {
                failures.push(format!(
                    "transport/500 parallel pricing: {base_ms:.3} ms -> {par_ms:.3} ms \
                     ({speedup:.2}x < required {PRICING_SPEEDUP_MIN:.2}x)"
                ));
            } else {
                println!(
                    "parallel pricing acceptance OK: transport/500 pricing {base_ms:.3} ms -> \
                     {par_ms:.3} ms ({speedup:.2}x)"
                );
            }
        }
        (None, _) => println!(
            "  (baseline has no serial transport/500 pricing_ms; pricing speedup not gated)"
        ),
        (_, _) => failures.push(
            "transport/500[sparse-lu-parallel]: missing or zero pricing_ms in fresh artifact"
                .into(),
        ),
    }
    match find_point(fresh, "fat_tree_k16/8", "sparse-lu-colgen-parallel")
        .and_then(|p| num(p, "wall_ms_median"))
    {
        Some(ms) if ms < K16_COLGEN_MAX_MS => {
            println!("k16 colgen acceptance OK: cold solve {ms:.3} ms < {K16_COLGEN_MAX_MS} ms");
        }
        Some(ms) => failures.push(format!(
            "fat_tree_k16/8 colgen: cold solve {ms:.3} ms >= {K16_COLGEN_MAX_MS} ms"
        )),
        None => failures
            .push("fat_tree_k16/8[sparse-lu-colgen-parallel]: missing from fresh artifact".into()),
    }
    failures
}

/// The intra-file acceptance guard: on LP artifacts, the named colgen
/// points must not be slower than eager enumeration.
fn colgen_acceptance(fresh: &Value) -> Vec<String> {
    const GUARDED: [&str; 3] = ["transport/500", "fat_tree_k8", "fat_tree_k16"];
    let mut failures = Vec::new();
    if !text(fresh, "schema").is_some_and(|s| s.starts_with("coflow-lp-bench/")) {
        return failures;
    }
    for p in arr(fresh, "colgen_vs_eager") {
        let Some(name) = text(p, "name") else {
            continue;
        };
        if !GUARDED.iter().any(|g| name.contains(g)) {
            continue;
        }
        let (Some(colgen), Some(eager)) = (num(p, "colgen_wall_ms"), num(p, "eager_wall_ms"))
        else {
            failures.push(format!("{name}: missing colgen/eager wall times"));
            continue;
        };
        if colgen > eager {
            failures.push(format!(
                "{name}: colgen {colgen:.3} ms slower than eager {eager:.3} ms"
            ));
        } else {
            println!("colgen acceptance OK: {name}: {colgen:.3} ms <= eager {eager:.3} ms");
        }
    }
    failures
}

/// Sibling trace file of a bench artifact, when one exists: the benches
/// write `TRACE_lp.jsonl` / `TRACE_online.jsonl` next to their JSON.
fn trace_sibling(artifact: &str, schema: Option<&str>) -> Option<std::path::PathBuf> {
    let fname = match schema {
        Some(s) if s.starts_with("coflow-lp-bench/") => "TRACE_lp.jsonl",
        Some(s) if s.starts_with("coflow-online-bench/") => "TRACE_online.jsonl",
        _ => return None,
    };
    let p = std::path::Path::new(artifact).with_file_name(fname);
    p.exists().then_some(p)
}

/// Per-span-name self-time sums of a JSONL trace, in first-appearance
/// order (raw trace units: ns for wall traces, ticks for logical).
fn span_self_by_name(path: &std::path::Path) -> Vec<(String, f64)> {
    let Ok(lines) = read_trace_lines(path) else {
        return Vec::new();
    };
    let mut agg: Vec<(String, f64)> = Vec::new();
    for l in &lines {
        if text(l, "type") != Some("span") {
            continue;
        }
        let (Some(name), Some(self_t)) = (text(l, "name"), num(l, "self")) else {
            continue;
        };
        match agg.iter_mut().find(|(n, _)| n == name) {
            Some(row) => row.1 += self_t,
            None => agg.push((name.to_string(), self_t)),
        }
    }
    agg
}

/// On gate failure: per-span self-time diff between the two artifacts'
/// sibling traces, sorted by absolute slowdown so the worst offender
/// prints first. Silent when either side has no trace.
fn print_worst_span_diff(args: &Args, schema: Option<&str>) {
    let (Some(base_trace), Some(fresh_trace)) = (
        trace_sibling(&args.baseline, schema),
        trace_sibling(&args.fresh, schema),
    ) else {
        return;
    };
    let old = span_self_by_name(&base_trace);
    let new = span_self_by_name(&fresh_trace);
    if old.is_empty() || new.is_empty() {
        return;
    }
    let mut rows: Vec<(String, f64, f64)> = Vec::new();
    for (name, new_self) in &new {
        let old_self = old.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v);
        rows.push((name.clone(), old_self, *new_self));
    }
    rows.sort_by(|a, b| {
        let da = a.2 - a.1;
        let db = b.2 - b.1;
        db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal)
    });
    eprintln!(
        "span self-time diff ({} -> {}), worst offender first:",
        base_trace.display(),
        fresh_trace.display()
    );
    for (i, (name, old_self, new_self)) in rows.iter().enumerate() {
        let tag = if i == 0 { "  <- worst offender" } else { "" };
        eprintln!(
            "  {name}: {:.3} -> {:.3} ms ({:+.3}){tag}",
            old_self / 1e6,
            new_self / 1e6,
            (new_self - old_self) / 1e6,
        );
    }
}

/// Compares matched series; a series present on only one side — a fresh
/// point the committed baseline predates, or a retired one — is
/// informational, never a failure. Returns (failures, JSON report rows).
fn gate_series(
    base_series: &[(String, f64)],
    fresh_series: &[(String, f64)],
    max_ratio: f64,
    min_ms: f64,
) -> (Vec<String>, Vec<Value>) {
    let mut failures = Vec::new();
    let mut report: Vec<Value> = Vec::new();
    for (name, new_ms) in fresh_series {
        let Some((_, old_ms)) = base_series.iter().find(|(n, _)| n == name) else {
            println!("  new series (no baseline): {name}: {new_ms:.3} ms");
            report.push(Value::Obj(vec![
                ("name".into(), Value::Str(name.clone())),
                ("old_ms".into(), Value::Null),
                ("new_ms".into(), Value::Num(*new_ms)),
                ("verdict".into(), Value::Str("new".into())),
            ]));
            continue;
        };
        let ratio = if *old_ms > 0.0 { new_ms / old_ms } else { 1.0 };
        let noise_floor = *old_ms < min_ms && *new_ms < min_ms;
        let verdict = if ratio > max_ratio && !noise_floor {
            failures.push(format!(
                "{name}: {old_ms:.3} ms -> {new_ms:.3} ms ({ratio:.2}x > {max_ratio:.2}x)"
            ));
            "REGRESSION"
        } else if noise_floor {
            "ok (below noise floor)"
        } else {
            "ok"
        };
        println!("  {name}: {old_ms:.3} ms -> {new_ms:.3} ms ({ratio:.2}x) {verdict}");
        report.push(Value::Obj(vec![
            ("name".into(), Value::Str(name.clone())),
            ("old_ms".into(), Value::Num(*old_ms)),
            ("new_ms".into(), Value::Num(*new_ms)),
            ("ratio".into(), Value::Num(ratio)),
            ("verdict".into(), Value::Str(verdict.into())),
        ]));
    }
    for (name, old_ms) in base_series {
        if !fresh_series.iter().any(|(n, _)| n == name) {
            println!("  retired series (baseline only): {name}: {old_ms:.3} ms");
            report.push(Value::Obj(vec![
                ("name".into(), Value::Str(name.clone())),
                ("old_ms".into(), Value::Num(*old_ms)),
                ("new_ms".into(), Value::Null),
                ("verdict".into(), Value::Str("retired".into())),
            ]));
        }
    }
    (failures, report)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    // A missing or unreadable committed baseline demotes every comparison
    // to informational instead of erroring the lane: the gate still runs
    // the fresh-artifact acceptance guards, which need no baseline.
    let baseline = match load(&args.baseline) {
        Ok(doc) => Some(doc),
        Err(e) => {
            eprintln!("warning: baseline unavailable ({e}); comparisons skipped, fresh-only acceptance still enforced");
            None
        }
    };
    let fresh = load(&args.fresh)?;
    let base_series = baseline.as_ref().map(extract_series).unwrap_or_default();
    let fresh_series = extract_series(&fresh);

    let (mut failures, report) =
        gate_series(&base_series, &fresh_series, args.max_ratio, args.min_ms);
    failures.extend(colgen_acceptance(&fresh));
    failures.extend(parallel_acceptance(
        baseline.as_ref().unwrap_or(&Value::Null),
        &fresh,
    ));

    if let Some(path) = &args.json {
        let doc = Value::Obj(vec![
            ("schema".into(), Value::Str("coflow-perf-gate/v1".into())),
            ("baseline".into(), Value::Str(args.baseline.clone())),
            ("fresh".into(), Value::Str(args.fresh.clone())),
            ("max_ratio".into(), Value::Num(args.max_ratio)),
            ("min_ms".into(), Value::Num(args.min_ms)),
            ("passed".into(), Value::Bool(failures.is_empty())),
            ("series".into(), Value::Arr(report)),
            (
                "failures".into(),
                Value::Arr(failures.iter().map(|f| Value::Str(f.clone())).collect()),
            ),
        ]);
        std::fs::write(path, doc.render()).map_err(|e| format!("failed to write {path}: {e}"))?;
        println!("wrote {path}");
    }

    if failures.is_empty() {
        println!(
            "perf gate OK: {} series within {:.2}x of {}",
            fresh_series.len(),
            args.max_ratio,
            args.baseline
        );
        Ok(true)
    } else {
        eprintln!("perf gate FAILED ({} regressions):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        print_worst_span_diff(&args, text(&fresh, "schema"));
        Ok(false)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perf_gate --baseline <old.json> --fresh <new.json> \
                 [--max-ratio 1.5] [--min-ms 5.0] [--json <report.json>]"
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp_doc(transport_ms: f64, colgen_ms: f64, eager_ms: f64) -> Value {
        parse_json(&format!(
            r#"{{
              "schema": "coflow-lp-bench/v2",
              "points": [{{"name": "raw_simplex/transport/100", "backend": "sparse-lu",
                           "wall_ms_median": {transport_ms}}}],
              "colgen_vs_eager": [{{"name": "raw_simplex/transport/500",
                                    "colgen_wall_ms": {colgen_ms},
                                    "eager_wall_ms": {eager_ms}}}]
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn extracts_both_lp_series_kinds() {
        let series = extract_series(&lp_doc(21.0, 15.0, 140.0));
        assert_eq!(
            series,
            vec![
                ("raw_simplex/transport/100[sparse-lu]".to_string(), 21.0),
                ("colgen/raw_simplex/transport/500".to_string(), 15.0),
            ]
        );
    }

    #[test]
    fn extracts_online_series() {
        let doc = parse_json(
            r#"{"schema": "coflow-online-bench/v1",
                "points": [{"arrival_rate": 0.25,
                            "policies": [{"policy": "LpOrder", "total_resolve_ms": 27.5}]}]}"#,
        )
        .unwrap();
        assert_eq!(
            extract_series(&doc),
            vec![("rate=0.25/LpOrder".to_string(), 27.5)]
        );
    }

    #[test]
    fn colgen_acceptance_flags_slowdown_past_eager() {
        assert!(colgen_acceptance(&lp_doc(21.0, 15.0, 140.0)).is_empty());
        let bad = colgen_acceptance(&lp_doc(21.0, 150.0, 140.0));
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("transport/500"), "{}", bad[0]);
    }

    fn serial_doc(pricing_ms: f64) -> Value {
        parse_json(&format!(
            r#"{{
              "schema": "coflow-lp-bench/v2",
              "points": [{{"name": "raw_simplex/transport/500", "backend": "sparse-lu",
                           "wall_ms_median": 580.0,
                           "stats": {{"pricing_ms": {pricing_ms}}}}}]
            }}"#
        ))
        .unwrap()
    }

    fn parallel_doc(pricing_ms: f64, k16_ms: f64) -> Value {
        parse_json(&format!(
            r#"{{
              "schema": "coflow-lp-bench/v2",
              "points": [
                {{"name": "raw_simplex/transport/500", "backend": "sparse-lu-parallel",
                  "wall_ms_median": 330.0, "stats": {{"pricing_ms": {pricing_ms}}}}},
                {{"name": "free_paths_lp/fat_tree_k16/8",
                  "backend": "sparse-lu-colgen-parallel", "wall_ms_median": {k16_ms}}}
              ]
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn parallel_acceptance_requires_two_x_pricing_cut() {
        let base = serial_doc(358.0);
        assert!(parallel_acceptance(&base, &parallel_doc(133.0, 65.0)).is_empty());
        let bad = parallel_acceptance(&base, &parallel_doc(250.0, 65.0));
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("parallel pricing"), "{}", bad[0]);
    }

    #[test]
    fn parallel_acceptance_caps_k16_colgen_wall() {
        let base = serial_doc(358.0);
        let bad = parallel_acceptance(&base, &parallel_doc(133.0, 1500.0));
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("fat_tree_k16"), "{}", bad[0]);
    }

    #[test]
    fn parallel_acceptance_flags_missing_fresh_points() {
        let base = serial_doc(358.0);
        let bad = parallel_acceptance(&base, &serial_doc(358.0));
        assert_eq!(bad.len(), 2, "{bad:?}");
    }

    #[test]
    fn series_missing_from_baseline_warn_and_skip() {
        // A fresh point the committed baseline predates is informational
        // ("new"), never a regression — the lane must stay green.
        let base = vec![("old_point".to_string(), 10.0)];
        let fresh = vec![
            ("old_point".to_string(), 11.0),
            ("brand_new_point".to_string(), 900.0),
        ];
        let (failures, report) = gate_series(&base, &fresh, 1.5, 5.0);
        assert!(failures.is_empty(), "{failures:?}");
        let verdicts: Vec<_> = report
            .iter()
            .map(|r| match r.lookup("verdict") {
                Some(Value::Str(s)) => s.clone(),
                _ => panic!("missing verdict"),
            })
            .collect();
        assert_eq!(verdicts, vec!["ok", "new"]);
        // Matched series still gate.
        let (failures, _) = gate_series(&base, &[("old_point".to_string(), 100.0)], 1.5, 5.0);
        assert_eq!(failures.len(), 1, "{failures:?}");
    }

    #[test]
    fn absent_baseline_doc_skips_cross_file_guards_only() {
        // With no baseline document at all, the baseline-relative pricing
        // guard is skipped but the fresh-only k16 wall cap still gates.
        assert!(parallel_acceptance(&Value::Null, &parallel_doc(250.0, 65.0)).is_empty());
        let bad = parallel_acceptance(&Value::Null, &parallel_doc(250.0, 1500.0));
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("fat_tree_k16"), "{}", bad[0]);
    }
}
