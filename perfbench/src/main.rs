//! `perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Prints a human-readable report, then one JSON line with the run's
//! metrics: end-to-end ones with `--trace 0`, per-layer ones with
//! `--trace 1`. Exits non-zero without a JSON line on a usage or run error.

use gnnadvisor_perfbench::heap::Counting;
use gnnadvisor_perfbench::runner::{run, Args};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match Args::parse(&args).and_then(|a| run(&a)) {
        Ok(m) => {
            print!("{}", m.report);
            println!("{}", m.json);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
