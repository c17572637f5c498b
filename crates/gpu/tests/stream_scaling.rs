//! Scaling gate for the stream scheduler: scheduling 4x the ops must take
//! about 4x the time, not 16x.
//!
//! Ignored by default because it times a release build; run it with
//! `cargo test --release -p gnnadvisor-gpu --test stream_scaling -- --ignored`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use gnnadvisor_gpu::kernel::WARP_SIZE;
use gnnadvisor_gpu::{BlockSink, Engine, GpuSpec, GridConfig, Kernel, StreamSim, Workload};

/// Attempts in the small run; the large run schedules four times as many.
const ATTEMPTS: usize = 4_000;
/// Release gap between consecutive attempts, cycles.
const RELEASE_GAP: u64 = 15_000;

/// A small aggregation-like kernel: a few warps of compute per block.
struct Aggregate;

impl Kernel for Aggregate {
    fn name(&self) -> &str {
        "aggregate"
    }
    fn grid(&self) -> GridConfig {
        GridConfig {
            num_blocks: 16,
            threads_per_block: 128,
            shared_mem_bytes: 4 << 10,
        }
    }
    fn emit_block(&self, _block: usize, sink: &mut BlockSink<'_>) {
        for _ in 0..4 {
            sink.begin_warp();
            sink.compute(200, WARP_SIZE);
        }
    }
}

/// Best of three timings of `StreamSim::run` over `attempts` serve-shaped
/// attempts (input copy, dense update GEMM, aggregation kernel), released
/// `RELEASE_GAP` apart and alternating over two streams.
fn best_run_time(engine: &Engine, attempts: usize) -> Duration {
    (0..3)
        .map(|_| {
            let mut sim = StreamSim::new(engine);
            let streams = [sim.stream(), sim.stream()];
            for i in 0..attempts {
                let (stream, release) = (streams[i % 2], i as u64 * RELEASE_GAP);
                for work in [
                    Workload::Transfer { bytes: 64 << 10 },
                    Workload::Gemm {
                        m: 512,
                        n: 64,
                        k: 64,
                    },
                    Workload::Kernel(&Aggregate),
                ] {
                    sim.enqueue_at(stream, work, release).expect("valid stream");
                }
            }
            let start = Instant::now();
            let report = black_box(sim.run().expect("straight-line work never deadlocks"));
            let elapsed = start.elapsed();
            assert_eq!(report.spans.len(), 3 * attempts);
            elapsed
        })
        .min()
        .expect("three timings")
}

#[test]
#[ignore = "timing gate; run in release with --ignored"]
fn scheduling_time_grows_linearly_with_ops() {
    let engine = Engine::new(GpuSpec::quadro_p6000());
    let small = best_run_time(&engine, ATTEMPTS);
    let large = best_run_time(&engine, 4 * ATTEMPTS);
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    eprintln!("t(N) = {small:?}, t(4N) = {large:?}, ratio {ratio:.2} (linear ~4, quadratic ~16)");
    assert!(
        ratio <= 8.0,
        "scheduling 4x the ops took {ratio:.2}x the time ({small:?} -> {large:?})"
    );
}
