//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <offline-k8|online-lp-k8|online-heuristic-k8|packet-grid8> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` a run sets up, measures for `--seconds` with tracing
//! off and prints the end-to-end metrics. With `--trace 1` it runs every
//! input twice in a row, untraced and then traced, and prints the
//! per-layer metrics, the span report and the tracing overhead. The last
//! line of standard output is one JSON object; `perfbench/README.md`
//! defines every metric.

mod offline;
mod online;
mod packet;
mod spans;
mod stats;
mod workload;

use spans::{summarize, NameStats, Tracer, SETUP_GROUP};
use stats::{mean, median, quantile};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Unit, Workload, LP_THREADS};

const USAGE: &str =
    "usage: perfbench --workload <offline-k8|online-lp-k8|online-heuristic-k8|packet-grid8> \
                     [--seed N] [--seconds S] [--trace 0|1]";
const WORKLOADS: [&str; 4] = [
    "offline-k8",
    "online-lp-k8",
    "online-heuristic-k8",
    "packet-grid8",
];
/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {}", a.seconds));
    }
    Ok(a)
}

/// The units one measuring pass ran.
#[derive(Default)]
struct Pass {
    units: Vec<Unit>,
    /// Wall time of each unit, s.
    wall_s: Vec<f64>,
}

impl Pass {
    fn total_s(&self) -> f64 {
        self.wall_s.iter().sum()
    }

    /// Runs unit `i` under `tr` inside a `unit` span, turning a panic into
    /// a failed unit.
    fn run<W: Workload>(&mut self, w: &mut W, tr: &mut Tracer, i: usize) {
        tr.set_group(i as u64);
        let depth = tr.depth();
        let t = Instant::now();
        let root = tr.enter("unit");
        let unit = catch_unwind(AssertUnwindSafe(|| w.run_unit(i, tr)));
        tr.close_to(depth + 1);
        tr.exit(root);
        self.wall_s.push(t.elapsed().as_secs_f64());
        self.units.push(unit.unwrap_or_else(|p| Unit {
            attempted: 1,
            failed: 1,
            reasons: vec![format!("unit {i}: panic: {}", panic_message(p))],
            ..Unit::default()
        }));
    }
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// Runs units with tracing off until `budget` seconds have passed and the
/// workload has its minimum sample count (or until twice the budget).
/// With `traced`, each unit runs a second time right after, recording
/// spans; the second pass is returned alongside.
fn measure<W: Workload>(w: &mut W, budget: f64, mut traced: Option<&mut Tracer>) -> (Pass, Pass) {
    let t0 = Instant::now();
    let (mut off, mut on) = (Pass::default(), Pass::default());
    let mut samples = 0;
    loop {
        let elapsed = t0.elapsed().as_secs_f64();
        if (elapsed >= budget && samples >= W::MIN_SAMPLES) || elapsed >= 2.0 * budget {
            return (off, on);
        }
        let i = off.units.len();
        off.run(w, &mut Tracer::off(), i);
        samples += off.units[i].step_ms.len();
        if let Some(tr) = traced.as_deref_mut() {
            on.run(w, tr, i);
        }
    }
}

/// A metric as printed in the result line.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn end_to_end(setup_s: &[f64], pass: &Pass) -> Vec<Metric> {
    let all = |f: fn(&Unit) -> &Vec<f64>| -> Vec<f64> {
        pass.units
            .iter()
            .flat_map(|u| f(u).iter().copied())
            .collect()
    };
    let plan = all(|u| &u.plan_ms);
    let step = all(|u| &u.step_ms);
    let ratios: Vec<f64> = pass
        .units
        .iter()
        .map(|u| u.cost_over_lb)
        .filter(|r| *r > 0.0)
        .collect();
    let (prim, base) = pass
        .units
        .iter()
        .filter(|u| u.primary_cct > 0.0 && u.baseline_cct > 0.0)
        .fold((0.0, 0.0), |(p, b), u| {
            (p + u.primary_cct, b + u.baseline_cct)
        });
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("setup_s", "s", median(setup_s)),
        m("plan_ms.p50", "ms", median(&plan)),
        m("plan_ms.p90", "ms", quantile(&plan, 0.9)),
        m("step_ms.p50", "ms", median(&step)),
        m("step_ms.p90", "ms", quantile(&step, 0.9)),
        m("replay_s", "s", mean(&pass.wall_s)),
        m("cost_over_lb", "ratio", mean(&ratios)),
        m("cct_ratio_vs_baseline", "ratio", prim / base),
        m(
            "peak_rss_mb",
            "MB",
            stats::peak_rss_mb().unwrap_or(f64::NAN),
        ),
    ]
}

/// Where a per-layer metric comes from. `Span`, `SetupSpan` and `Median`
/// read the span or count named like the metric without its `.ms` or
/// `.p50` suffix; `PerUnit` and `Mean` read the count of the same name.
enum Src {
    /// Total time of spans, ms per unit.
    Span,
    /// Self time of spans with this name, ms per unit.
    SelfOf(&'static str),
    /// Total time of set-up spans, ms per set-up.
    SetupSpan,
    /// Sum of a count over the run, per unit.
    PerUnit,
    /// Mean of a count's samples.
    Mean,
    /// Median of a count's samples.
    Median,
    /// Σ first count / Σ second count.
    Ratio(&'static str, &'static str),
    /// Unit self time over unit total time.
    Unattributed,
    /// Traced minus untraced wall time, over untraced wall time.
    Overhead,
}

const PER_LAYER: &[(&str, &str, Src)] = &[
    ("workloads.gen.ms", "ms", Src::SetupSpan),
    ("core.lp_free.ms", "ms", Src::Span),
    ("lp.pivots", "count", Src::PerUnit),
    ("lp.phase1_pivots", "count", Src::PerUnit),
    ("lp.refactorizations", "count", Src::PerUnit),
    ("lp.rows", "count", Src::Mean),
    ("lp.cols", "count", Src::Mean),
    ("lp.pricing_ms", "ms", Src::PerUnit),
    ("lp.ftran_btran_ms", "ms", Src::PerUnit),
    ("lp.factor_ms", "ms", Src::PerUnit),
    ("core.round.ms", "ms", Src::Span),
    ("core.order.ms", "ms", Src::Span),
    ("sim.fluid.ms", "ms", Src::Span),
    ("core.baselines.ms", "ms", Src::Span),
    ("core.check.ms", "ms", Src::Span),
    ("engine.plan.ms", "ms", Src::Span),
    ("engine.self.ms", "ms", Src::SelfOf("engine.run")),
    ("engine.epochs", "count", Src::PerUnit),
    ("engine.events", "count", Src::PerUnit),
    ("engine.retries", "count", Src::PerUnit),
    ("engine.degraded_epochs", "count", Src::PerUnit),
    ("engine.fallback_uses", "count", Src::PerUnit),
    ("engine.live_flows.p50", "count", Src::Median),
    ("lp.pivots_per_epoch.p50", "count", Src::Median),
    (
        "lp.warm_accept_ratio",
        "ratio",
        Src::Ratio("lp.warm_used", "lp.warm_attempted"),
    ),
    ("sim.segments", "count", Src::PerUnit),
    ("net.bfs_paths.ms", "ms", Src::Span),
    ("core.packet_free.ms", "ms", Src::Span),
    ("core.packet_jobshop.ms", "ms", Src::Span),
    ("sim.packetsim.ms", "ms", Src::Span),
    ("core.packet_check.ms", "ms", Src::Span),
    ("packet.blocks", "count", Src::PerUnit),
    ("unattributed_frac", "ratio", Src::Unattributed),
    ("trace_overhead_frac", "ratio", Src::Overhead),
];

/// What the traced pass measured, read through [`Src`].
struct Traced<'a> {
    spans: BTreeMap<&'static str, NameStats>,
    setup_spans: BTreeMap<&'static str, NameStats>,
    counts: BTreeMap<&'static str, Vec<f64>>,
    units: usize,
    untraced: &'a Pass,
    traced: &'a Pass,
}

impl Traced<'_> {
    fn ms_per_unit(&self, ns: u64) -> f64 {
        ns as f64 / 1e6 / self.units as f64
    }

    /// The per-layer metric `name`; `None` when the workload produced no
    /// sample for it.
    fn value(&self, name: &str, src: &Src) -> Option<f64> {
        let base = name.trim_end_matches(".ms").trim_end_matches(".p50");
        let sum = |k: &str| self.counts.get(k).map(|v| v.iter().sum::<f64>());
        Some(match *src {
            Src::Span => self.ms_per_unit(self.spans.get(base)?.total_ns),
            Src::SelfOf(n) => self.ms_per_unit(self.spans.get(n)?.self_ns),
            Src::SetupSpan => self.setup_spans.get(base)?.total_ns as f64 / 1e6,
            Src::PerUnit => sum(name)? / self.units as f64,
            Src::Mean => mean(self.counts.get(name)?),
            Src::Median => median(self.counts.get(base)?),
            Src::Ratio(a, b) => {
                let den = sum(b)?;
                if den > 0.0 {
                    sum(a)? / den
                } else {
                    return None;
                }
            }
            Src::Unattributed => {
                let u = self.spans.get("unit")?;
                u.self_ns as f64 / u.total_ns as f64
            }
            Src::Overhead => self.traced.total_s() / self.untraced.total_s() - 1.0,
        })
    }

    fn unit_ms(&self) -> f64 {
        self.spans
            .get("unit")
            .map_or(f64::NAN, |u| self.ms_per_unit(u.total_ns))
    }
}

/// Checks that the traced run confirms why the workload exists.
fn design_checks(workload: &str, t: &Traced<'_>) -> Vec<(String, bool)> {
    let get = |name: &str| {
        let src = &PER_LAYER
            .iter()
            .find(|(n, _, _)| *n == name)
            .expect("metric is listed in PER_LAYER")
            .2;
        t.value(name, src).unwrap_or(0.0)
    };
    let unit = t.unit_ms();
    let share = |v: f64| format!("{:.1}%", 100.0 * v / unit);
    match workload {
        "offline-k8" => {
            let v = get("core.lp_free.ms");
            vec![(
                format!("core.lp_free.ms is {} of step_ms (want >= 90%)", share(v)),
                v >= 0.9 * unit,
            )]
        }
        "online-lp-k8" => {
            let v = get("engine.plan.ms");
            vec![(
                format!("engine.plan.ms is {} of replay_s (want >= 90%)", share(v)),
                v >= 0.9 * unit,
            )]
        }
        "online-heuristic-k8" => {
            let p = get("lp.pivots");
            let v = get("engine.self.ms") + get("core.check.ms");
            vec![
                (format!("lp.pivots is {p} (want 0)"), p == 0.0),
                (
                    format!(
                        "engine.self.ms + core.check.ms is {} of replay_s (want >= 50%)",
                        share(v)
                    ),
                    v >= 0.5 * unit,
                ),
            ]
        }
        _ => {
            let largest = t
                .spans
                .iter()
                .filter(|(n, _)| **n != "unit")
                .max_by_key(|(_, s)| s.total_ns)
                .map_or("none", |(n, _)| *n);
            vec![(
                format!("largest layer is {largest} (want core.packet_free)"),
                largest == "core.packet_free",
            )]
        }
    }
}

fn print_span_report(t: &Traced<'_>) {
    let unit_ns = t.spans.get("unit").map_or(0, |u| u.total_ns) as f64;
    println!(
        "\nspans per unit ({} units): name, calls, total ms, self ms, share of end-to-end",
        t.units
    );
    for (name, s) in &t.spans {
        println!(
            "  {name:<22} {:>8} {:>12.4} {:>12.4} {:>7.2}%",
            s.calls,
            t.ms_per_unit(s.total_ns),
            t.ms_per_unit(s.self_ns),
            100.0 * s.total_ns as f64 / unit_ns
        );
    }
    let mut by_crate: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, s) in &t.spans {
        let layer = name.split('.').next().unwrap_or(name);
        *by_crate.entry(layer).or_default() += s.self_ns;
    }
    println!("self time by layer (\"unit\" = unattributed benchmark time):");
    for (layer, ns) in by_crate {
        println!(
            "  {layer:<10} {:>12.4} ms/unit {:>7.2}%",
            t.ms_per_unit(ns),
            100.0 * ns as f64 / unit_ns
        );
    }
}

fn json_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run<W: Workload>(args: &Args) -> Result<String, String> {
    // Set up several times; keep the last workload (and, when tracing,
    // the last set-up's spans).
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let mut tr = if args.trace && rep + 1 == SETUP_REPS {
            Tracer::on()
        } else {
            Tracer::off()
        };
        tr.set_group(SETUP_GROUP);
        let t0 = Instant::now();
        let built = catch_unwind(AssertUnwindSafe(|| W::setup(args.seed, &mut tr)))
            .map_err(|p| format!("set-up panicked: {}", panic_message(p)))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        last = Some((built, tr));
    }
    let (mut w, mut tr) = last.expect("SETUP_REPS > 0");
    let mut reasons = catch_unwind(AssertUnwindSafe(|| w.self_test()))
        .unwrap_or_else(|p| vec![format!("self-test panicked: {}", panic_message(p))]);
    let mut attempted = 1;
    let mut failed = usize::from(!reasons.is_empty());

    let metrics;
    if args.trace {
        let (untraced, traced) = measure(&mut w, args.seconds, Some(&mut tr));
        for (i, (a, b)) in untraced.units.iter().zip(&traced.units).enumerate() {
            attempted += 1;
            if a.wsum_bits != b.wsum_bits {
                failed += 1;
                reasons.push(format!(
                    "unit {i}: Σ ω·C differs between untraced and traced runs"
                ));
            }
        }
        let mut counts: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for u in &traced.units {
            for (k, v) in &u.counts {
                counts.entry(k).or_default().extend(v);
            }
        }
        let t = Traced {
            spans: summarize(tr.spans(), |g| g != SETUP_GROUP),
            setup_spans: summarize(tr.spans(), |g| g == SETUP_GROUP),
            counts,
            units: traced.units.len(),
            untraced: &untraced,
            traced: &traced,
        };
        print_span_report(&t);
        println!("\nper-layer metrics:");
        metrics = PER_LAYER
            .iter()
            .map(|(name, unit, src)| {
                let value = t.value(name, src);
                let why = W::not_applicable()
                    .iter()
                    .find(|(prefix, _)| name.starts_with(prefix))
                    .map(|(_, why)| *why);
                let note = match (value, why) {
                    (_, Some(why)) => format!("   (n/a: {why})"),
                    (None, None) => "   (n/a: no samples)".into(),
                    _ => String::new(),
                };
                println!("  {name:<26} {:>14.6} {unit}{note}", value.unwrap_or(0.0));
                Metric {
                    name,
                    unit,
                    value: value.unwrap_or(0.0),
                }
            })
            .collect::<Vec<_>>();
        println!("\ndesign checks:");
        for (what, ok) in design_checks(&args.workload, &t) {
            println!("  [{}] {what}", if ok { "ok" } else { "NOT MET" });
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        tr.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans: {} written to {}", tr.spans().len(), path.display());
        for p in [&untraced, &traced] {
            for u in &p.units {
                attempted += u.attempted;
                failed += u.failed;
                reasons.extend(u.reasons.iter().cloned());
            }
        }
    } else {
        let (pass, _) = measure(&mut w, args.seconds, None);
        metrics = end_to_end(&setup_s, &pass);
        let plans: usize = pass.units.iter().map(|u| u.plan_ms.len()).sum();
        let steps: usize = pass.units.iter().map(|u| u.step_ms.len()).sum();
        println!(
            "\nend-to-end ({} units, {plans} plan samples, {steps} step samples, {} set-ups):",
            pass.units.len(),
            setup_s.len()
        );
        for m in &metrics {
            println!("  {:<24} {:>14.6} {}", m.name, m.value, m.unit);
        }
        for u in &pass.units {
            attempted += u.attempted;
            failed += u.failed;
            reasons.extend(u.reasons.iter().cloned());
        }
    }
    for m in &metrics {
        if !m.value.is_finite() {
            failed += 1;
            reasons.push(format!("metric {} is not finite", m.name));
        }
    }
    println!(
        "failed_frac: {failed}/{attempted} = {:.6}",
        failed as f64 / attempted as f64
    );
    for r in reasons.iter().take(20) {
        println!("  failure: {r}");
    }
    let finite: Vec<Metric> = metrics
        .into_iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { 0.0 },
            ..m
        })
        .collect();
    Ok(json_result(failed == 0, attempted, failed, &finite))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let clock = coflow_obs::ClockMode::from_env();
    if clock == coflow_obs::ClockMode::Logical {
        eprintln!(
            "perfbench: refusing to run under COFLOW_OBS_CLOCK=logical: \
             the solver's SolveStats milliseconds would be tick counts"
        );
        return ExitCode::from(2);
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "knobs: nproc={} lp_threads={LP_THREADS} (pinned; COFLOW_LP_THREADS={}) obs_clock={clock:?} commit={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        std::env::var("COFLOW_LP_THREADS").unwrap_or_else(|_| "unset".into()),
        stats::git_commit().unwrap_or_else(|| "unknown (not a git checkout)".into())
    );
    let result = match args.workload.as_str() {
        "offline-k8" => run::<offline::Offline>(&args),
        "online-lp-k8" => run::<online::OnlineLp>(&args),
        "online-heuristic-k8" => run::<online::OnlineHeuristic>(&args),
        _ => run::<packet::Packet>(&args),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
