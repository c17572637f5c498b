//! The measurement loop shared by every workload, and its output.
//!
//! One run: set the inputs up once, run the flow once on one simulation
//! worker as the warm-up, and once on `nproc` workers as the reference.
//! Then repeat steps until `--seconds` have passed (at least
//! [`MIN_STEPS`]). A step sets the inputs up for at least
//! [`SETUP_BLOCK_SECONDS`], runs the fixed
//! [`crate::reference`] work, runs the flow on one worker, then runs the
//! reference work again. Every iteration's simulated results must equal
//! the reference bit for bit. With `--trace 1`, each step is followed by a
//! traced one-worker iteration and an untraced `nproc`-worker one, probes
//! run once at the end, and per-layer metrics (self-time shares, counts,
//! modelled values and the `nproc`-over-one-worker time ratio) are
//! reported instead of the end-to-end metrics.
//!
//! Host times are gated in units of the reference work timed around them,
//! which follows the host's speed but not the program: `wall_rel` is the
//! median over steps of the flow's time over the mean of the reference
//! times just before and after it (the common reference plus the
//! workload's [`Workload::extra_reference_s`]), and `setup_s` is the median
//! over set-ups of their time over the mean of the common reference times
//! just before and after their block, times
//! [`crate::reference::NOMINAL_S`].

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::{describe, median, tail_percentile};
use crate::trace::{self_time_by_layer, self_times, Span, Tracer};
use crate::{Checks, Result, Summary, Workload};

/// Each untraced step sets the inputs up repeatedly for at least this
/// long, so that a set-up of a few milliseconds still yields a steady
/// median and set-ups sample the host across the whole run.
pub const SETUP_BLOCK_SECONDS: f64 = 0.25;

/// Set-up repetitions whose spans go to the trace file.
const TRACED_SETUPS: usize = 3;

/// Simulation workers of the timed and traced iterations. One worker
/// times the simulator's serial host cost, which the single-threaded
/// reference work can follow on a shared host. The engine's parallel shard
/// dispatch (the library's default, on `nproc` workers) is timed only in
/// traced runs and reported as the ungated `gpu.engine.nproc_wall_ratio`:
/// on a shared 2-vCPU host, the second CPU's availability swings its time
/// far more than any bound could absorb.
pub const SERIAL_THREADS: usize = 1;

/// Fewest timed steps per run, whatever `--seconds` says.
pub const MIN_STEPS: usize = 3;

/// Root span of one traced iteration of the flow.
const ITERATION: &str = "bench.iteration";

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_rel", "x"),
    ("peak_heap_mb", "MB"),
    ("ok_frac", "ratio"),
    ("sim_ms", "ms"),
];

/// Per-layer metrics: name, unit, and the span whose self-time share it
/// is (`None` for counts and modelled values).
///
/// Host time per layer is reported as a share of its phase's wall time
/// (the set-up, a traced iteration of the flow, or a probe), so a bypassed
/// layer reads 0 rather than a constant time; the seconds themselves go to
/// the report's self-time table and the trace file.
pub const PER_LAYER: [(&str, &str, Option<&str>); 45] = [
    (
        "datasets.generate_share",
        "ratio",
        Some("datasets.generate"),
    ),
    (
        "graph.generators.generate_share",
        "ratio",
        Some("graph.generators.generate"),
    ),
    (
        "graph.reorder.renumber_share",
        "ratio",
        Some("graph.reorder.renumber"),
    ),
    ("graph.reorder.modularity", "ratio", None),
    ("graph.reorder.communities", "count", None),
    ("graph.reorder.span_ratio", "ratio", None),
    ("core.tuning.tune_share", "ratio", Some("core.tuning.tune")),
    ("core.tuning.engine_evals", "count", None),
    ("core.tuning.fast_evals", "count", None),
    ("core.tuning.memo_hits", "count", None),
    ("core.tuning.calibration_band", "ratio", None),
    (
        "core.runtime.build_share",
        "ratio",
        Some("core.runtime.build"),
    ),
    (
        "gpu.engine.aggregate_share",
        "ratio",
        Some("gpu.engine.aggregate"),
    ),
    ("gpu.engine.gemm_share", "ratio", Some("gpu.engine.gemm")),
    ("gpu.engine.kernels", "count", None),
    ("gpu.engine.nproc_wall_ratio", "ratio", None),
    ("gpu.cache.hit_rate", "ratio", None),
    ("gpu.dram_mb", "MB", None),
    ("gpu.sm_efficiency", "ratio", None),
    (
        "core.compute.aggregate_share",
        "ratio",
        Some("core.compute.aggregate"),
    ),
    ("tensor.linear_share", "ratio", Some("tensor.linear")),
    (
        "models.serve.plan_share",
        "ratio",
        Some("models.serve.plan"),
    ),
    (
        "models.dynamic.plan_share",
        "ratio",
        Some("models.dynamic.plan"),
    ),
    (
        "core.serving.simulate_share",
        "ratio",
        Some("core.serving.simulate"),
    ),
    ("core.serving.batches", "count", None),
    ("core.serving.retries", "count", None),
    ("core.serving.attempt_yield", "ratio", None),
    (
        "gpu.stream.enqueue_share",
        "ratio",
        Some("gpu.stream.enqueue"),
    ),
    ("gpu.stream.run_share", "ratio", Some("gpu.stream.run")),
    ("gpu.stream.ops", "count", None),
    ("gpu.stream.occupancy", "ratio", None),
    ("gpu.stream.kernel_busy_frac", "ratio", None),
    ("gpu.stream.copy_busy_frac", "ratio", None),
    (
        "core.dynamic.simulate_share",
        "ratio",
        Some("core.dynamic.simulate"),
    ),
    ("core.dynamic.renumbers", "count", None),
    ("graph.dynamic.updates_applied", "count", None),
    ("gpu.cache.tail_hit_rate", "ratio", None),
    (
        "graph.sample.sample_share",
        "ratio",
        Some("graph.sample.sample"),
    ),
    ("graph.sample.scanned_edges", "count", None),
    (
        "models.train.step_share",
        "ratio",
        Some("models.train.step"),
    ),
    ("core.minibatch.sim_host_frac", "ratio", None),
    ("core.minibatch.sim_device_frac", "ratio", None),
    ("core.minibatch.sim_overlap", "ratio", None),
    ("bench.trace_overhead_frac", "ratio", None),
    ("bench.uncovered_frac", "ratio", Some(ITERATION)),
];

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time, seconds.
    pub seconds: f64,
    /// Trace run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(args: &[String]) -> Result<Self> {
        let mut out = Args {
            workload: String::new(),
            seed: crate::DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => out.workload = value.clone(),
                "--seed" => out.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    out.seconds = value.parse().map_err(|_| bad())?;
                    if !(out.seconds.is_finite() && out.seconds >= 0.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if out.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(out)
    }
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Human-readable report.
    pub report: String,
    /// The final JSON line.
    pub json: String,
}

/// Spans of one traced phase, for the trace file.
struct Phase {
    label: String,
    spans: Vec<Span>,
}

/// One timed run of the flow.
struct Iteration {
    wall_s: f64,
    summary: Summary,
    checks: Checks,
    spans: Vec<Span>,
}

/// Runs the flow once on `threads` workers, traced or not, and checks its
/// output (structurally too when `deep`) and that its simulated results
/// equal `reference`'s.
fn iterate<W: Workload>(
    w: &W,
    inputs: &W::Inputs,
    threads: usize,
    traced: bool,
    deep: bool,
    reference: &Summary,
) -> Result<Iteration> {
    let t = Tracer::new();
    let start = Instant::now();
    let out = if traced {
        t.span(ITERATION, || w.run_traced(inputs, threads, &t))?
    } else {
        w.run(inputs, threads)?
    };
    let wall_s = start.elapsed().as_secs_f64();
    let mut checks = Checks::default();
    w.check(inputs, &out, deep, &mut checks);
    let summary = w.summary(&out);
    drop(out);
    checks.check(same_results(&summary, reference), || {
        format!(
            "a{} iteration at sim_threads {threads} differs from the reference",
            if traced { " traced" } else { "n untraced" }
        )
    });
    Ok(Iteration {
        wall_s,
        summary,
        checks,
        spans: t.spans(),
    })
}

/// Runs workload `w` as `args` says.
pub fn measure<W: Workload>(w: &W, args: &Args) -> Result<Measurement> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = SERIAL_THREADS;
    let mut report = String::new();
    let mut phases: Vec<Phase> = Vec::new();
    let mut checks = Checks::default();

    // Warm-up set-up and flow on one worker. Peak memory is read after
    // them, before any multi-worker run or repetition, whose interleaving
    // would make a later reading wander.
    let mut inputs = Some(w.setup(args.seed, &Tracer::new())?);
    let current = inputs.as_ref().expect("set up");
    let warm_up = w.summary(&w.run(current, threads)?);
    let peak_heap_mb = crate::heap::peak_bytes() as f64 / (1024.0 * 1024.0);
    let peak_rss_mb = peak_rss_kb() as f64 / 1024.0;

    // Reference: every core.
    let reference_out = w.run(current, nproc)?;
    w.check(current, &reference_out, true, &mut checks);
    let reference = w.summary(&reference_out);
    drop(reference_out);
    checks.check(same_results(&warm_up, &reference), || {
        format!("the sim_threads {threads} warm-up differs from the sim_threads {nproc} reference")
    });
    let mut attempted = 2usize;
    let mut failed = usize::from(!checks.failures.is_empty());

    // Timed steps (set-ups, the reference work, the flow on one worker,
    // the reference work again). With tracing, each step is followed by a
    // traced one-worker iteration and an untraced nproc-worker one.
    let mut setup_s = Vec::new();
    let mut setup_rel = Vec::new();
    let mut setup_layers: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut serial_s = Vec::new();
    let mut parallel_s = Vec::new();
    let mut reference_s = Vec::new();
    let mut flow_reference_s = Vec::new();
    let mut wall_rel = Vec::new();
    let mut traced_s = Vec::new();
    let mut traced_layers: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut layer_values = reference.layers.clone();
    let mut deep_done = [false; 2];
    // (common reference, the flow's reference) in seconds.
    let time_reference = || {
        let common = crate::reference::run_s();
        (common, common + w.extra_reference_s())
    };
    let mut last_reference = time_reference();
    let window = Instant::now();
    let mut i = 0usize;
    while wall_rel.len() < MIN_STEPS
        || (args.trace && parallel_s.is_empty())
        || window.elapsed().as_secs_f64() < args.seconds
    {
        let traced = args.trace && i % 3 == 1;
        let parallel = args.trace && i % 3 == 2;
        if !traced && !parallel {
            let first = setup_s.len();
            let block = Instant::now();
            while setup_s.len() == first || block.elapsed().as_secs_f64() < SETUP_BLOCK_SECONDS {
                // The kept inputs go first, so two sets never coexist.
                drop(inputs.take());
                let t = Tracer::new();
                let start = Instant::now();
                let made = t.span("bench.setup", || w.setup(args.seed, &t))?;
                setup_s.push(start.elapsed().as_secs_f64());
                inputs = Some(made);
                let spans = t.spans();
                setup_layers.push(shares(&spans));
                if phases.len() < TRACED_SETUPS {
                    phases.push(Phase {
                        label: format!("setup {}", phases.len()),
                        spans,
                    });
                }
            }
            let r = time_reference();
            let around = (last_reference.0 + r.0) / 2.0;
            setup_rel.extend(setup_s[first..].iter().map(|s| s / around));
            reference_s.push(r.0);
            flow_reference_s.push(r.1);
            last_reference = r;
        }
        let workers = if parallel { nproc } else { threads };
        let deep = !std::mem::replace(&mut deep_done[usize::from(traced)], true);
        let current = inputs.as_ref().expect("set up");
        let run = iterate(w, current, workers, traced, deep, &reference)?;
        if traced {
            traced_s.push(run.wall_s);
            traced_layers.push(shares(&run.spans));
            layer_values = run.summary.layers;
            phases.push(Phase {
                label: format!("iteration {i}"),
                spans: run.spans,
            });
        } else if parallel {
            parallel_s.push(run.wall_s);
        } else {
            let r = time_reference();
            serial_s.push(run.wall_s);
            reference_s.push(r.0);
            flow_reference_s.push(r.1);
            wall_rel.push(run.wall_s / ((last_reference.1 + r.1) / 2.0));
            last_reference = r;
        }
        attempted += 1;
        failed += usize::from(!run.checks.failures.is_empty());
        checks.passed += run.checks.passed;
        checks.failures.extend(run.checks.failures);
        i += 1;
    }
    let inputs = inputs.expect("set up");

    // Probes replay layers the flow reaches only inside another call.
    let mut probe_layers: Vec<Vec<(&'static str, f64)>> = Vec::new();
    if args.trace {
        let t = Tracer::new();
        let mut c = Checks::default();
        let extra = t.span("bench.probe", || {
            w.probe(&inputs, threads, &t, &reference, &mut c)
        })?;
        layer_values.extend(extra);
        layer_values.push((
            "bench.trace_overhead_frac",
            median(&traced_s) / median(&serial_s) - 1.0,
        ));
        layer_values.push((
            "gpu.engine.nproc_wall_ratio",
            median(&parallel_s) / median(&serial_s),
        ));
        let spans = t.spans();
        probe_layers.push(shares(&spans));
        phases.push(Phase {
            label: "probe".into(),
            spans,
        });
        attempted += 1;
        failed += usize::from(!c.failures.is_empty());
        checks.passed += c.passed;
        checks.failures.extend(c.failures);
    }

    let ok_frac = match reference.requests {
        Some(r) => r.completed as f64 / r.arrivals.max(1) as f64,
        None => checks.passed as f64 / checks.total().max(1) as f64,
    };

    let _ = writeln!(
        report,
        "perfbench {}: seed {}, sim_threads {threads} timed and traced, {nproc} reference \
         and timed when tracing (nproc {nproc}), trace {}",
        w.name(),
        args.seed,
        if args.trace { "on" } else { "off" }
    );
    let setup_nominal: Vec<f64> = setup_rel
        .iter()
        .map(|r| r * crate::reference::NOMINAL_S)
        .collect();
    let _ = writeln!(report, "set-up time: {}", describe(&setup_s, "s"));
    let _ = writeln!(
        report,
        "setup_s (at the nominal host speed): {}",
        describe(&setup_nominal, "s")
    );
    let _ = writeln!(
        report,
        "wall_s (untraced, sim_threads {threads}): {}",
        describe(&serial_s, "s")
    );
    if !parallel_s.is_empty() {
        let _ = writeln!(
            report,
            "wall_s (untraced, sim_threads {nproc}): {}",
            describe(&parallel_s, "s")
        );
    }
    let _ = writeln!(
        report,
        "reference work: common {}, with the flow's own {}; \
         wall_rel (wall_s / reference): median {:.4} (n={})",
        describe(&reference_s, "s"),
        describe(&flow_reference_s, "s"),
        median(&wall_rel),
        wall_rel.len()
    );
    if args.trace {
        let _ = writeln!(report, "wall_s (traced): {}", describe(&traced_s, "s"));
    }
    let _ = writeln!(
        report,
        "after one set-up and one flow on {threads} worker: peak_heap_mb {peak_heap_mb:.3}, \
         peak_rss_mb {peak_rss_mb:.1}"
    );
    report.push_str(&simulated_report(&reference, threads, nproc));

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        for (name, unit, span) in PER_LAYER {
            let value = match span {
                Some(span) => [&setup_layers, &traced_layers, &probe_layers]
                    .iter()
                    .map(|phase| median_share(phase, span))
                    .sum(),
                None => layer_values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v),
            };
            metrics.push((name, value, unit));
        }
        let metric = |name: &str| metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
        let _ = writeln!(
            report,
            "tracing overhead: {:+.1}% (traced over untraced median wall_s); \
             uncovered by any layer span: {:.1}% of traced wall_s",
            metric("bench.trace_overhead_frac") * 100.0,
            metric("bench.uncovered_frac") * 100.0
        );
        report.push_str(&layer_table(&phases));
        match write_trace(w.name(), args, threads, nproc, &phases) {
            Ok(path) => {
                let _ = writeln!(report, "spans and self-time table written to {path}");
            }
            Err(e) => checks.failures.push(format!("cannot write the trace: {e}")),
        }
    } else {
        let values = [
            median(&setup_nominal),
            median(&wall_rel),
            peak_heap_mb,
            ok_frac,
            reference.sim_ms,
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push((name, value, unit));
        }
    }
    let finite = metrics.iter().all(|m| m.1.is_finite());
    if !finite {
        checks.failures.push("a metric is not finite".into());
    }
    let _ = writeln!(
        report,
        "checks: {} of {} passed",
        checks.passed,
        checks.total()
    );
    for f in &checks.failures {
        let _ = writeln!(report, "  FAILED: {f}");
    }

    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failures.is_empty(),
        attempted,
        failed + usize::from(!finite),
    );
    for (k, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    Ok(Measurement { report, json })
}

/// Bitwise equality of the simulated results.
fn same_results(a: &Summary, b: &Summary) -> bool {
    a.sim.len() == b.sim.len()
        && a.sim
            .iter()
            .zip(&b.sim)
            .all(|(x, y)| x.name == y.name && x.value.to_bits() == y.value.to_bits())
        && a.sim_ms.to_bits() == b.sim_ms.to_bits()
        && a.requests == b.requests
}

/// Each layer's self time as a share of the phase's wall time (the
/// duration of its root span, the first one recorded).
fn shares(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let wall = spans.first().map_or(0.0, Span::duration_s);
    self_time_by_layer(spans)
        .into_iter()
        .map(|(name, t)| (name, if wall > 0.0 { t / wall } else { 0.0 }))
        .collect()
}

/// Median over a phase's repetitions of one layer's share (0 when the
/// layer never ran in that phase).
fn median_share(per_rep: &[Vec<(&'static str, f64)>], span: &str) -> f64 {
    let values: Vec<f64> = per_rep
        .iter()
        .filter_map(|layers| layers.iter().find(|(n, _)| *n == span).map(|&(_, v)| v))
        .collect();
    if values.is_empty() {
        0.0
    } else {
        median(&values)
    }
}

/// The simulated results, the latency-tail rule and the hardware
/// reference comparison.
fn simulated_report(reference: &Summary, threads: usize, nproc: usize) -> String {
    let mut out = format!("simulated (bit-identical at sim_threads {threads} and {nproc}):\n");
    for m in &reference.sim {
        let _ = writeln!(out, "  {:<26} {} {}", m.name, m.value, m.unit);
    }
    if let Some(r) = reference.requests {
        let _ = writeln!(
            out,
            "  requests: {} arrivals, {} completed, {} shed/failed/late (open loop, latency from arrival)",
            r.arrivals, r.completed, r.lost
        );
        match tail_percentile(r.completed, &crate::serve::REPORT_PERCENTILES) {
            Some(p) => {
                let _ = writeln!(
                    out,
                    "  latency tail: p{p} is the highest reported percentile with ten samples \
                     beyond it (n={} completed)",
                    r.completed
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  latency tail: no reported percentile has ten samples beyond it (n={})",
                    r.completed
                );
            }
        }
    }
    if let Some(speedup) = reference.sim("sim_speedup_vs_dgl") {
        let paper = crate::fullgraph::PAPER_TYPE_III_GCN_SPEEDUP;
        let _ = writeln!(
            out,
            "  reference: sim_speedup_vs_dgl {speedup:.2}x vs the paper's Type III GCN average \
             {paper:.2}x (relative error {:+.1}%); the model is otherwise unvalidated against \
             hardware",
            (speedup / paper - 1.0) * 100.0
        );
    }
    out
}

/// Per-layer self time, summed over every traced phase, largest first.
fn layer_table(phases: &[Phase]) -> String {
    let mut totals: Vec<(&'static str, f64)> = Vec::new();
    for p in phases {
        for (name, t) in self_time_by_layer(&p.spans) {
            match totals.iter_mut().find(|(n, _)| *n == name) {
                Some((_, acc)) => *acc += t,
                None => totals.push((name, t)),
            }
        }
    }
    totals.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut out = String::from("self time by layer, all traced phases:\n");
    for (name, t) in totals {
        let _ = writeln!(out, "  {name:<30} {t:>10.4} s");
    }
    out
}

/// Writes every traced span and the self-time table under `out/` in the
/// benchmark's directory; returns the path.
fn write_trace(
    workload: &str,
    args: &Args,
    threads: usize,
    nproc: usize,
    phases: &[Phase],
) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/{workload}-seed{}.trace.json", args.seed);
    let mut json = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"sim_threads\": {threads}, \
         \"reference_sim_threads\": {nproc}, \"nproc\": {nproc}, \"phases\": [",
        args.seed
    );
    for (k, p) in phases.iter().enumerate() {
        let _ = write!(
            json,
            "{}{{\"phase\": \"{}\", \"spans\": [",
            if k == 0 { "" } else { ", " },
            p.label
        );
        for (j, (s, self_s)) in p.spans.iter().zip(self_times(&p.spans)).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |x| x.to_string());
            let _ = write!(
                json,
                "{}{{\"name\": \"{}\", \"parent\": {parent}, \"start_s\": {:?}, \
                 \"end_s\": {:?}, \"self_s\": {self_s:?}}}",
                if j == 0 { "" } else { ", " },
                s.name,
                s.start_s,
                s.end_s
            );
        }
        json.push_str("]}");
    }
    json.push_str("]}\n");
    std::fs::write(&path, json)?;
    std::fs::write(
        format!("{dir}/{workload}-seed{}.layers.txt", args.seed),
        layer_table(phases),
    )?;
    Ok(path)
}

/// Peak resident set size of this process, KiB (`getrusage`).
fn peak_rss_kb() -> i64 {
    // struct rusage on 64-bit Linux: two timevals (4 words), then
    // ru_maxrss in KiB, then 13 more longs.
    #[repr(C)]
    struct RUsage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage([0; 18]);
    // SAFETY: `usage` is a writable buffer of the size of `struct rusage`,
    // and RUSAGE_SELF (0) is always a valid `who`; on failure the buffer
    // stays zeroed.
    unsafe { getrusage(0, &mut usage) };
    usage.0[4]
}

/// Runs the workload named in `args`.
pub fn run(args: &Args) -> Result<Measurement> {
    match args.workload.as_str() {
        "fullgraph" => measure(&crate::fullgraph::FullGraph::default(), args),
        "serve" => measure(&crate::serve::Serve::default(), args),
        "serve-churn" => measure(&crate::churn::Churn::default(), args),
        "minibatch" => measure(&crate::minibatch::MiniBatch::default(), args),
        other => Err(format!(
            "unknown workload {other}; use fullgraph, serve, serve-churn or minibatch"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// The `(name, unit)` pairs of the metric list `key` of the
    /// repository's `BENCHMARK.json`, in order.
    fn declared(key: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let list = &json[json.find(&format!("\"{key}\"")).expect("metric list")..];
        let list = &list[..list.find(']').expect("end of the list")];
        let field = |obj: &str, name: &str| {
            let rest = &obj[obj.find(&format!("\"{name}\"")).expect(name)..];
            let rest = &rest[rest.find(':').expect("a value") + 1..];
            let start = rest.find('"').expect("a string") + 1;
            let len = rest[start..].find('"').expect("closing quote");
            rest[start..start + len].to_string()
        };
        list.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn owned<'a>(pairs: impl Iterator<Item = (&'a str, &'a str)>) -> Vec<(String, String)> {
        pairs.map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn metrics_match_the_declared_ones() {
        assert_eq!(owned(END_TO_END.iter().copied()), declared("end_to_end"));
        assert_eq!(
            owned(PER_LAYER.iter().map(|&(n, u, _)| (n, u))),
            declared("per_layer")
        );
    }
}
