//! Fixed reference computations that time the host's current speed.
//!
//! Shared hosts change speed by tens of percent over seconds to minutes,
//! which swamps run-to-run comparisons of absolute wall time. Running fixed
//! work just before and after every timed block of work and dividing the
//! block's time by it gives a ratio taken within one run (`wall_rel`, and
//! `setup_s` through [`NOMINAL_S`]) that follows the program, not the
//! host. The work is the benchmark's own and does not call the library, so
//! no change to the program moves it.
//!
//! [`run_s`] is the common reference: sorting, hashing, a small dense GEMM
//! and allocation churn, the same kinds of work the simulator's host code
//! does, in under 2 MB. A ratio only holds still if both sides slow down
//! alike, so a workload whose flow is dominated by a loop of another shape
//! adds work of that shape: [`scan_s`] walks a growing array of records
//! the size of the stream scheduler's per-kernel records, which grows past
//! a core's 2 MB L2 cache the way the scheduler's own array does on
//! `serve`, and so slows with it when the host's caches are contended.

use std::collections::HashMap;
use std::time::Instant;

/// The common reference work's median time, seconds, on the 2-vCPU Xeon
/// VM the bounds in `BENCHMARK.json` were measured on. `setup_s` reports
/// set-up time at this host speed: each set-up's time over the common
/// reference time measured around it, times this constant.
pub const NOMINAL_S: f64 = 0.15;

/// Runs the common reference work once; returns its wall time, seconds.
pub fn run_s() -> f64 {
    let start = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut counts: HashMap<u32, u32> = HashMap::new();
    for _ in 0..16 {
        let mut keys: Vec<u32> = (0..250_000).map(|_| next() as u32).collect();
        keys.sort_unstable();
        for &k in keys.iter().step_by(2) {
            *counts.entry(k % 16_384).or_insert(0) += 1;
        }
    }
    let n = 96;
    let a: Vec<f32> = (0..n * n).map(|i| (i % 13) as f32).collect();
    let mut c = vec![0f32; n * n];
    for _ in 0..80 {
        for r in 0..n {
            for k in 0..n {
                let av = a[r * n + k];
                for col in 0..n {
                    c[r * n + col] += av * a[k * n + col];
                }
            }
        }
    }
    let mut allocated = 0usize;
    for i in 0..30_000 {
        let b: Vec<u64> = vec![i as u64; 64 + i % 512];
        allocated += std::hint::black_box(b).len();
    }
    std::hint::black_box((counts, c, allocated));
    start.elapsed().as_secs_f64()
}

/// Words (u64) per record of [`scan_s`]: 136 bytes, the size of a
/// kernel's record in the stream scheduler's admission array.
const RECORD_WORDS: usize = 17;

/// Records [`scan_s`] grows to: about the kernels `serve` activates in one
/// schedule (17,096 to 17,160 over seeds), so the array ends near 2.3 MB.
const RECORDS: usize = 17_100;

/// Runs the scan reference once; returns its wall time, seconds.
///
/// Records are pushed one at a time, each with pending work, and after
/// each push the whole array is scanned, skipping records with nothing
/// pending: the shape of the scheduler's admission pass.
pub fn scan_s() -> f64 {
    let start = Instant::now();
    let mut records: Vec<[u64; RECORD_WORDS]> = Vec::new();
    let mut done = 0u64;
    for i in 0..RECORDS {
        let mut record = [i as u64; RECORD_WORDS];
        record[0] = 1;
        records.push(record);
        for r in std::hint::black_box(&mut records).iter_mut() {
            if r[0] == 0 {
                continue;
            }
            r[0] -= 1;
            done += r[1];
        }
    }
    std::hint::black_box(done);
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    #[test]
    fn reference_work_takes_measurable_time() {
        for t in [super::run_s(), super::scan_s()] {
            assert!(t.is_finite() && t > 0.0);
        }
    }
}
