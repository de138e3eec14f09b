//! Profiling harness: loops the T2 exploration so a sampling profiler has
//! something to chew on. Not an experiment binary.
//!
//! Usage: `profile_t2 [iters] [--n N] [--symmetric] [--ws] [--kset]
//! [--trace FILE]`. The default is 2000 iterations of the raw n = 4
//! exploration; `--symmetric` profiles the symmetry-reduced (orbit)
//! exploration, `--ws` recruits the work-stealing pool at the root
//! (`force_parallel`, auto thread count), and `--kset` profiles the k-set-agreement race
//! (`KSetViaStrongSa` over a strong 2-SA object) instead of Algorithm 2.
//! `--trace FILE` attaches a JSONL tracer to the *last* iteration only
//! (the earlier iterations warm up untraced), producing an
//! `obs_analyze`-ready trace without perturbing the profiled loop.
//! `--threads N` forces the worker count (default: auto for `--ws`,
//! 1 otherwise).
//!
//! Live observability (also last-iteration-only): `--metrics-out
//! FILE.prom` attaches a metrics registry and renders it in the
//! Prometheus text format on exit; `--progress-ms N` streams `progress`
//! events (configs/sec, frontier depth, ETA, memory) into the `--trace`
//! file every N milliseconds — `obs_top --follow FILE` renders them live.

use lbsa_bench::{distinct_inputs, mixed_binary_inputs};
use lbsa_core::{AnyObject, ObjId, Pid};
use lbsa_explorer::{Exploration, Explorer, JsonlSink, Registry, Tracer};
use lbsa_protocols::dac::DacFromPac;
use lbsa_protocols::set_agreement_protocols::KSetViaStrongSa;
use lbsa_runtime::process::{Protocol, Symmetry};
use std::hint::black_box;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let symmetric = args.iter().any(|a| a == "--symmetric");
    let ws = args.iter().any(|a| a == "--ws");
    let kset = args.iter().any(|a| a == "--kset");
    let n: usize = args
        .iter()
        .position(|a| a == "--n")
        .and_then(|i| args.get(i + 1))
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);
    let iters: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(2000);
    let trace: Option<String> = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let threads: Option<usize> = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|a| a.parse().ok());
    let metrics_out: Option<String> = args
        .iter()
        .position(|a| a == "--metrics-out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let progress_ms: Option<u64> = args
        .iter()
        .position(|a| a == "--progress-ms")
        .and_then(|i| args.get(i + 1))
        .and_then(|a| a.parse().ok());

    let obs = Obs {
        trace: trace.as_deref(),
        metrics_out: metrics_out.as_deref(),
        progress_ms,
    };
    let (workload, configs, last_summary) = if kset {
        let p = KSetViaStrongSa::new(distinct_inputs(n), ObjId(0));
        let objects = vec![AnyObject::strong_sa()];
        let explorer = Explorer::new(&p, &objects);
        run(&explorer, iters, symmetric, ws, threads, &obs)
    } else {
        let p = DacFromPac::new(mixed_binary_inputs(n), Pid(0), ObjId(0)).unwrap();
        let objects = vec![AnyObject::pac(n).unwrap()];
        let explorer = Explorer::new(&p, &objects);
        run(&explorer, iters, symmetric, ws, threads, &obs)
    };
    let family = if kset { "kset_race" } else { "t2_dac" };
    eprintln!("{family} n={n} {workload}: {configs} configs");
    eprintln!("last iteration: {last_summary}");
}

/// The last-iteration observability attachments, parsed once in `main`.
struct Obs<'a> {
    trace: Option<&'a str>,
    metrics_out: Option<&'a str>,
    progress_ms: Option<u64>,
}

fn run<P>(
    explorer: &Explorer<'_, P>,
    iters: usize,
    symmetric: bool,
    ws: bool,
    threads: Option<usize>,
    obs: &Obs<'_>,
) -> (String, usize, String)
where
    P: Protocol + Symmetry,
    P::LocalState: Ord,
{
    let build = || -> Exploration<'_, '_, P> {
        let mut e = explorer.exploration().threads(threads.unwrap_or(1));
        if symmetric {
            e = e.symmetric();
        }
        if ws {
            e = e.force_parallel().threads(threads.unwrap_or(0));
        }
        e
    };
    let json = std::env::args().any(|a| a == "--json");
    let registry = Registry::new();
    let mut configs = 0;
    let mut last_summary = String::new();
    for i in 0..iters {
        let mut e = build();
        if i + 1 == iters {
            if let Some(path) = obs.trace {
                let sink = JsonlSink::create(path).expect("create trace file");
                e = e.trace(Tracer::new(sink));
            }
            if obs.metrics_out.is_some() {
                e = e.registry(registry.clone());
            }
            if let Some(ms) = obs.progress_ms {
                e = e.progress_every(std::time::Duration::from_millis(ms));
            }
        }
        let g = e.run().unwrap();
        configs = black_box(g.configs.len());
        last_summary = if json {
            g.stats.to_json().pretty()
        } else {
            g.stats.summary()
        };
    }
    if let Some(path) = obs.metrics_out {
        std::fs::write(path, registry.render_prometheus()).expect("write metrics file");
        eprintln!("metrics: {path}");
    }
    let mode = match (symmetric, ws) {
        (true, true) => "reduced+ws",
        (true, false) => "reduced",
        (false, true) => "ws",
        (false, false) => "raw",
    };
    (mode.to_string(), configs, last_summary)
}
