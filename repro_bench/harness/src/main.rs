//! In-process half of the repository benchmark; `repro_bench/run.py`
//! builds and drives it and checks every result it prints.
//!
//! ```text
//! repro_harness run <workload> <seed> <seconds> <setups> <trace 0|1>
//! repro_harness layers <seed>
//! repro_harness sweep <variant> <threads>
//! repro_harness record
//! ```
//!
//! `run` sets the workload up `setups` times (input generation, instance
//! construction and one untimed warm-up round each), then runs rounds for
//! `seconds`, reporting each round's time, work and peak resident memory;
//! with trace 1, every other round records spans. `layers`
//! runs the per-layer replays of every workload. `sweep` runs one
//! `vote_sampling` round at a fixed thread count. `record` prints the
//! result of every op the workloads can draw, for the expected outputs.

mod hierarchy;
mod layers;
mod out;
mod work;

use out::{Line, Spans};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use work::{Check, OpResult, SplitMix};

const USAGE: &str = "usage: repro_harness run <workload> <seed> <seconds> <setups> <trace 0|1>\n       repro_harness layers <seed>\n       repro_harness sweep <variant> <threads>\n       repro_harness record";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let words: Vec<&str> = args.iter().map(String::as_str).collect();
    match words.as_slice() {
        ["run", workload, seed, seconds, setups, trace] => {
            let (Ok(seed), Ok(seconds), Ok(setups), Ok(trace)) = (
                seed.parse::<u64>(),
                seconds.parse::<f64>(),
                setups.parse::<usize>(),
                trace.parse::<u8>(),
            ) else {
                usage()
            };
            if !matches!(
                *workload,
                "kset_exhaustive" | "dac_symmetric" | "vote_sampling"
            ) || trace > 1
            {
                usage()
            }
            run(workload, seed, seconds, setups, trace == 1);
        }
        ["layers", seed] => {
            let Ok(seed) = seed.parse::<u64>() else {
                usage()
            };
            run_layers(seed);
        }
        ["sweep", variant, threads] => {
            let (Ok(variant), Ok(threads)) = (variant.parse::<u64>(), threads.parse::<usize>())
            else {
                usage()
            };
            for cell in 0..work::vote_cells().len() {
                work::vote_op(variant, cell, threads).check.emit();
            }
        }
        ["record"] => record(),
        _ => usage(),
    }
}

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

/// Runs `op`, turning a panic into a failed check under `key`.
fn guarded(key: &str, op: impl FnOnce() -> OpResult) -> OpResult {
    let start = Instant::now();
    catch_unwind(AssertUnwindSafe(op)).unwrap_or_else(|_| OpResult {
        elapsed: start.elapsed(),
        work: 0,
        check: Check {
            key: key.into(),
            verdict: "panic".into(),
            fields: Vec::new(),
        },
    })
}

/// One round of `workload`: one op, or for `vote_sampling` one sweep of
/// every grid cell. Returns (op seconds, work units, ops).
fn round(workload: &str, rng: &mut SplitMix, spans: &mut Spans) -> (f64, u64, u64) {
    let results: Vec<OpResult> = match workload {
        "kset_exhaustive" => {
            let inputs = work::kset_inputs(rng);
            let span = spans.begin("explore.check_k_set_agreement");
            let r = guarded("kset", || work::kset_op(&inputs, 0));
            spans.end(span, r.work);
            vec![r]
        }
        "dac_symmetric" => {
            let (d, bit) = work::dac_variant(rng);
            let span = spans.begin("explore.symmetric_run+dac_verdict");
            let r = guarded(&work::dac_key(d, bit), || work::dac_op(d, bit, 0));
            spans.end(span, r.work);
            vec![r]
        }
        _ => {
            let variant = rng.below(work::VOTE_VARIANTS);
            (0..work::vote_cells().len())
                .map(|cell| {
                    let span = spans.begin("sampling.check_consensus");
                    let r = guarded(&work::vote_key(variant, cell), || {
                        work::vote_op(variant, cell, 0)
                    });
                    spans.end(span, r.work);
                    r
                })
                .collect()
        }
    };
    let mut total = Duration::ZERO;
    let mut units = 0;
    for r in &results {
        r.check.emit();
        total += r.elapsed;
        units += r.work;
    }
    (total.as_secs_f64(), units, results.len() as u64)
}

fn run(workload: &str, seed: u64, seconds: f64, setups: usize, trace: bool) {
    let mut rng = SplitMix::new(seed);
    let mut spans = Spans::new(false);
    for _ in 0..setups {
        let start = Instant::now();
        round(workload, &mut rng, &mut spans);
        Line::new()
            .num("setup_s", start.elapsed().as_secs_f64())
            .emit();
    }
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut index = 0u64;
    // A traced run alternates untraced and traced rounds, so it needs two.
    while index < 1 + u64::from(trace) || Instant::now() < deadline {
        let traced = trace && index % 2 == 1;
        spans.set_enabled(traced);
        spans.next_op();
        // Without the reset, every round reports the whole process's peak.
        out::reset_peak_rss();
        let span = spans.begin("round");
        let (s, units, ops) = round(workload, &mut rng, &mut spans);
        spans.end(span, ops);
        Line::new()
            .int("round", index)
            .bool("traced", traced)
            .num("s", s)
            .int("work", units)
            .int("ops", ops)
            .num("peak_rss_mb", out::peak_rss_mb().unwrap_or(f64::NAN))
            .emit();
        index += 1;
    }
    spans.emit();
}

fn run_layers(seed: u64) {
    let mut rng = SplitMix::new(seed ^ 0x1A7E_0000);
    let mut spans = Spans::new(true);
    hierarchy::hierarchy_block(&mut spans);
    layers::kset_block(&mut spans, &mut rng);
    layers::dac_block(&mut spans, &mut rng);
    layers::vote_block(&mut spans, &mut rng);
    spans.emit();
}

fn record() {
    let mut spans = Spans::new(false);
    work::kset_op(&work::kset_inputs(&mut SplitMix::new(0)), 0)
        .check
        .emit();
    for d in 0..work::DAC_N {
        for bit in 0..2 {
            work::dac_op(d, bit, 0).check.emit();
        }
    }
    for variant in 0..work::VOTE_VARIANTS {
        for cell in 0..work::vote_cells().len() {
            work::vote_op(variant, cell, 0).check.emit();
        }
    }
    hierarchy::hierarchy_block(&mut spans);
    let mut rng = SplitMix::new(0);
    layers::kset_block(&mut spans, &mut rng);
    layers::dac_block(&mut spans, &mut rng);
}
