//! Each workload, at a small size and the default seed, computes exactly
//! what the matching `gnnadvisor` subcommand prints for the same flags, and
//! its traced flow computes exactly what its untraced flow does, at one
//! simulation worker and at two.

use gnnadvisor_perfbench::churn::Churn;
use gnnadvisor_perfbench::fullgraph::FullGraph;
use gnnadvisor_perfbench::minibatch::MiniBatch;
use gnnadvisor_perfbench::serve::Serve;
use gnnadvisor_perfbench::trace::Tracer;
use gnnadvisor_perfbench::{Checks, Summary, Workload, DEFAULT_SEED};
use gnnadvisor_repro::cli::dispatch;

/// Runs the untraced and the traced flow at 1 and at 2 workers, checks
/// each, and returns the summary they must all share.
fn run<W: Workload>(w: &W) -> Summary {
    let inputs = w.setup(DEFAULT_SEED, &Tracer::new()).expect("set-up");
    let mut checks = Checks::default();
    let mut summaries = Vec::new();
    for threads in [1, 2] {
        for out in [
            w.run(&inputs, threads).expect("flow"),
            w.run_traced(&inputs, threads, &Tracer::new())
                .expect("traced flow"),
        ] {
            w.check(&inputs, &out, true, &mut checks);
            summaries.push(w.summary(&out));
        }
    }
    assert!(checks.failures.is_empty(), "{:?}", checks.failures);
    let summary = summaries[0].clone();
    for other in &summaries[1..] {
        assert_eq!(
            summary.sim, other.sim,
            "results depend on tracing or workers"
        );
    }
    let mut probe_checks = Checks::default();
    w.probe(&inputs, 2, &Tracer::new(), &summary, &mut probe_checks)
        .expect("probe");
    assert!(
        probe_checks.failures.is_empty(),
        "{:?}",
        probe_checks.failures
    );
    summary
}

fn cli(line: &str) -> String {
    let args: Vec<String> = line.split_whitespace().map(String::from).collect();
    dispatch(&args).expect("CLI runs")
}

/// The value printed after `label` on the first line containing it, up to
/// the next space or comma.
fn field(out: &str, label: &str) -> String {
    let line = out
        .lines()
        .find(|l| l.contains(label))
        .unwrap_or_else(|| panic!("no `{label}` in:\n{out}"));
    let rest = line[line.find(label).unwrap() + label.len()..].trim_start();
    rest.split([' ', ','])
        .next()
        .expect("a value follows the label")
        .to_string()
}

fn sim(s: &Summary, name: &str) -> f64 {
    s.sim(name)
        .unwrap_or_else(|| panic!("no simulated metric {name}"))
}

#[test]
fn fullgraph_matches_run_and_tune() {
    let w = FullGraph { scale: 0.02 };
    let s = run(&w);
    let run_out = cli("run --dataset amazon0505 --scale 0.02");
    assert_eq!(
        field(&run_out, "(Quadro P6000):"),
        format!("{:.4}", sim(&s, "sim_forward_ms")),
        "{run_out}"
    );
    let tune_out = cli("tune --dataset amazon0505 --scale 0.02");
    assert_eq!(
        field(&tune_out, "estimating (two-tier): gs="),
        format!("{}", sim(&s, "tune_best_gs")),
    );
    assert_eq!(
        field(&tune_out, "(engine"),
        format!("{:.4}", sim(&s, "sim_tune_engine_ms")),
        "{tune_out}"
    );
}

#[test]
fn serve_matches_serve_sim() {
    let w = Serve {
        requests: 3_000,
        scale: 0.05,
    };
    let s = run(&w);
    let out = cli(
        "serve-sim --requests 3000 --rate 8000 --batch-size 8 --max-delay-ms 2 --queue-cap 64 \
         --streams 2 --fault-rate 0.05 --retries 2 --deadline-ms 40 --scale 0.05 --seed 7",
    );
    assert_serving_matches(&s, &out);
}

#[test]
fn serve_churn_matches_serve_dynamic() {
    let w = Churn {
        requests: 1_000,
        updates: 5_000,
    };
    let s = run(&w);
    let out = cli(
        "serve-dynamic --requests 1000 --rate 200000 --streams 1 --batch-size 4 --scale 0.05 \
         --updates 5000 --update-gap-ms 0.0005 --seed 7",
    );
    assert_serving_matches(&s, &out);
    assert_eq!(
        field(&out, "re-renumber events"),
        format!("{}", sim(&s, "renumbers"))
    );
    assert_eq!(
        field(&out, "updates applied"),
        format!("{}", sim(&s, "updates_applied"))
    );
    assert_eq!(
        field(&out, "hit-rate tail"),
        format!("{:.4}", sim(&s, "tail_hit_rate"))
    );
}

fn assert_serving_matches(s: &Summary, out: &str) {
    for (label, name, digits) in [
        ("latency p50", "sim_p50_ms", 3),
        ("latency p99", "sim_p99_ms", 3),
        ("goodput", "sim_goodput_rps", 3),
        ("requests completed", "completed", 0),
        ("requests failed", "failed", 0),
        ("batch retries", "retries", 0),
    ] {
        assert_eq!(
            field(out, label),
            format!("{:.*}", digits, sim(s, name)),
            "{label} in:\n{out}"
        );
    }
}

#[test]
fn minibatch_matches_train_minibatch() {
    let w = MiniBatch { scale: 0.05 };
    let s = run(&w);
    let out = cli(
        "train-minibatch --scale 0.05 --batch-size 8 --fanout 10,5 --hidden 16 --epochs 2 --seed 7",
    );
    assert_eq!(
        field(&out, "final: loss"),
        format!("{:.6}", sim(&s, "train_loss"))
    );
    // The last epoch row: `1 <batches> <loss> <acc> <host> <device> <pipelined> ...`.
    let row: Vec<&str> = out
        .lines()
        .find(|l| l.starts_with("1 "))
        .expect("epoch 1 row")
        .split_whitespace()
        .collect();
    assert_eq!(row[6], format!("{:.4}", sim(&s, "sim_epoch_ms")), "{out}");
}
