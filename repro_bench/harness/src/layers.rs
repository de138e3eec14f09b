//! Per-layer accounting from outside the program: each layer's public
//! functions are replayed over the configurations of a finished graph and
//! timed as one span, so the layer's cost is measured where its work
//! happens without instrumenting the engine.

use crate::out::{metric, Spans};
use crate::work::{
    dac_check, dac_op, dac_protocol, dac_variant, dac_verdict, kset_inputs, kset_op, kset_protocol,
    vote_cells, vote_op, OpResult, SplitMix, VOTE_VARIANTS,
};
use lbsa_core::{AnyState, ObjectSpec, Op, Pid};
use lbsa_explorer::intern::{CompactConfig, ConcurrentIndex, Interner};
use lbsa_explorer::{ConfigSymmetry, Configuration, ExplorationGraph, Explorer};
use lbsa_runtime::process::Symmetry;
use lbsa_runtime::{ProcStatus, Protocol};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time and work count of one replayed layer.
#[derive(Clone, Copy, Default)]
pub struct Layer {
    pub total: Duration,
    pub count: u64,
}

impl Layer {
    fn secs(&self) -> f64 {
        self.total.as_secs_f64()
    }

    fn ns_per(&self) -> f64 {
        self.secs() * 1e9 / self.count.max(1) as f64
    }
}

pub(crate) fn timed<R>(spans: &mut Spans, name: &str, f: impl FnOnce() -> (R, u64)) -> (R, Layer) {
    let span = spans.begin(name);
    let start = Instant::now();
    let (value, count) = f();
    let total = start.elapsed();
    spans.end(span, count);
    (value, Layer { total, count })
}

/// Every (expanded config, enabled pid) pair of the graph.
fn steps_of<L>(graph: &ExplorationGraph<L>) -> Vec<(usize, Pid)>
where
    L: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    let mut pairs = Vec::new();
    for (idx, config) in graph.configs.iter().enumerate() {
        if graph.expanded[idx] {
            pairs.extend(config.enabled_pids().into_iter().map(|pid| (idx, pid)));
        }
    }
    pairs
}

/// `Explorer::successors_of` over every expanded config; the count is the
/// number of successors, which must equal the graph's transitions.
fn step_layer<P: Protocol>(
    spans: &mut Spans,
    explorer: &Explorer<'_, P>,
    graph: &ExplorationGraph<P::LocalState>,
) -> Layer {
    let pairs = steps_of(graph);
    timed(spans, "runtime.successors_of", || {
        let mut count = 0u64;
        for &(idx, pid) in &pairs {
            let next = explorer
                .successors_of(&graph.configs[idx], pid)
                .expect("graph configs replay");
            count += next.len() as u64;
            black_box(next);
        }
        ((), count)
    })
    .1
}

/// `AnyObject::outcomes` on each enabled process's pending op.
fn outcomes_layer<P: Protocol>(
    spans: &mut Spans,
    explorer: &Explorer<'_, P>,
    graph: &ExplorationGraph<P::LocalState>,
) -> Layer {
    let calls: Vec<(&AnyState, usize, Op)> = steps_of(graph)
        .into_iter()
        .map(|(idx, pid)| {
            let config = &graph.configs[idx];
            let ProcStatus::Running(local) = &config.procs[pid.index()] else {
                unreachable!("enabled pids are running")
            };
            let (obj, op) = explorer.protocol().pending_op(pid, local);
            (&config.object_states[obj.index()], obj.index(), op)
        })
        .collect();
    let objects = explorer.objects();
    timed(spans, "core.outcomes", || {
        for (state, obj, op) in &calls {
            black_box(
                objects[*obj]
                    .outcomes(state, op)
                    .expect("replayed ops are valid"),
            );
        }
        ((), calls.len() as u64)
    })
    .1
}

/// Compaction of every config through the public interners, then one
/// dedup probe per transition against a `ConcurrentIndex` holding them.
/// Returns (compact, probe, index bytes).
fn intern_layers<L>(spans: &mut Spans, graph: &ExplorationGraph<L>) -> (Layer, Layer, usize)
where
    L: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    let states: Interner<AnyState> = Interner::new();
    let procs: Interner<ProcStatus<L>> = Interner::new();
    let (keys, compact) = timed(spans, "intern.compact", || {
        let keys: Vec<CompactConfig> = graph
            .configs
            .iter()
            .map(|c| {
                c.object_states
                    .iter()
                    .map(|s| states.intern(s))
                    .chain(c.procs.iter().map(|p| procs.intern(p)))
                    .collect()
            })
            .collect();
        let n = keys.len() as u64;
        (keys, n)
    });
    let index = ConcurrentIndex::new();
    for key in &keys {
        index.get_or_insert(key);
    }
    let (_, probe) = timed(spans, "intern.probe", || {
        let mut count = 0u64;
        for edges in &graph.edges {
            for edge in edges {
                black_box(index.probe(&keys[edge.target]));
                count += 1;
            }
        }
        ((), count)
    });
    (compact, probe, index.approx_bytes())
}

/// `ConfigSymmetry::canonicalize_incremental` on every distinct raw
/// successor of the reduced graph's expanded configs: the engine's
/// canonicalization inputs, each canonicalized once as its memo does.
fn canon_layer<P>(
    spans: &mut Spans,
    explorer: &Explorer<'_, P>,
    graph: &ExplorationGraph<P::LocalState>,
) -> Layer
where
    P: Symmetry,
    P::LocalState: Ord,
{
    let sym = ConfigSymmetry::of(explorer.protocol());
    let successors: HashSet<Configuration<P::LocalState>> = steps_of(graph)
        .into_iter()
        .flat_map(|(idx, pid)| {
            explorer
                .successors_of(&graph.configs[idx], pid)
                .expect("graph configs replay")
        })
        .collect();
    timed(spans, "symmetry.canonicalize", || {
        for config in &successors {
            black_box(sym.canonicalize_incremental(config));
        }
        ((), successors.len() as u64)
    })
    .1
}

/// Heap bytes per configuration: the graph's own estimate plus each
/// configuration's two component vectors.
fn bytes_per_config<L>(graph: &ExplorationGraph<L>) -> f64 {
    let vectors: usize = graph
        .configs
        .iter()
        .map(|c| {
            c.object_states.capacity() * std::mem::size_of::<AnyState>()
                + c.procs.capacity() * std::mem::size_of::<ProcStatus<L>>()
        })
        .sum();
    (graph.approx_bytes() + vectors) as f64 / graph.configs.len().max(1) as f64
}

/// Timings of the exhaustive engine on one instance: `.run()` at the
/// default thread count and at one thread and the `check` terminal at one
/// thread (each the fastest of its repeats), and the checker pass: the
/// median over back-to-back pairs of one-thread check time minus run time,
/// so that slow drift of the host cancels within each pair.
struct EngineTimes {
    run: f64,
    seq_run: f64,
    seq_check: f64,
    pass: f64,
}

fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Also returns the graph of the last default-thread `.run()`, which the
/// layer replays walk. `threads: 0` is the default (auto) count.
fn engine_times<L>(
    spans: &mut Spans,
    prefix: &str,
    reps: usize,
    mut run: impl FnMut(usize) -> ExplorationGraph<L>,
    mut check: impl FnMut(usize) -> OpResult,
) -> (EngineTimes, ExplorationGraph<L>) {
    let mut graph = None;
    let mut runs = Vec::new();
    for _ in 0..reps {
        let (g, t) = timed(spans, &format!("{prefix}.explore.run"), || {
            let g = run(0);
            let configs = g.configs.len() as u64;
            (g, configs)
        });
        runs.push(t.secs());
        graph = Some(g);
    }
    let (mut seq_runs, mut seq_checks, mut passes) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let (_, r) = timed(spans, &format!("{prefix}.explore.run.threads1"), || {
            ((), run(1).configs.len() as u64)
        });
        let (_, c) = timed(spans, &format!("{prefix}.explore.check.threads1"), || {
            let result = check(1);
            result.check.emit();
            ((), result.work)
        });
        seq_runs.push(r.secs());
        seq_checks.push(c.secs());
        passes.push(c.secs() - r.secs());
    }
    let times = EngineTimes {
        run: fastest(&runs),
        seq_run: fastest(&seq_runs),
        seq_check: fastest(&seq_checks),
        pass: median(passes),
    };
    (times, graph.expect("reps >= 1"))
}

/// The layer replays shared by the two exhaustive workloads.
struct Replays {
    step: Layer,
    outcomes: Layer,
    compact: Layer,
    probe: Layer,
    index_bytes: usize,
}

/// Replays step, outcome and intern layers over `graph`, and checks that
/// the replayed step count equals the graph's transitions.
fn replay<P: Protocol>(
    spans: &mut Spans,
    prefix: &str,
    explorer: &Explorer<'_, P>,
    graph: &ExplorationGraph<P::LocalState>,
) -> Replays {
    let step = step_layer(spans, explorer, graph);
    let outcomes = outcomes_layer(spans, explorer, graph);
    let (compact, probe, index_bytes) = intern_layers(spans, graph);
    crate::work::Check {
        key: format!("{prefix}/replay"),
        verdict: if step.count == graph.transitions as u64 {
            "consistent".into()
        } else {
            "inconsistent".into()
        },
        fields: vec![("transitions", step.count)],
    }
    .emit();
    Replays {
        step,
        outcomes,
        compact,
        probe,
        index_bytes,
    }
}

/// The layer metrics shared by the two exhaustive workloads; `canon` is
/// the canonicalization replay of a symmetric workload.
fn report_exhaustive<L>(
    prefix: &str,
    times: &EngineTimes,
    graph: &ExplorationGraph<L>,
    r: &Replays,
    canon: Option<Layer>,
) {
    let m = |name: &str, value: f64, unit: &str| metric(&format!("{prefix}.{name}"), value, unit);
    m("explore.run_s", times.run, "s");
    m("explore.seq_run_s", times.seq_run, "s");
    m("explore.par_speedup", times.seq_run / times.run, "ratio");
    m("runtime.step_ns", r.step.ns_per(), "ns");
    m("core.outcomes_ns", r.outcomes.ns_per(), "ns");
    m("intern.compact_ns", r.compact.ns_per(), "ns");
    m("intern.probe_ns", r.probe.ns_per(), "ns");
    m("intern.index_bytes", r.index_bytes as f64, "bytes");
    m(
        "explore.new_per_transition",
        (graph.configs.len() as f64 - 1.0) / graph.transitions.max(1) as f64,
        "ratio",
    );
    m("checker.pass_s", times.pass, "s");
    m("graph.bytes_per_config", bytes_per_config(graph), "bytes");
    let replayed = r.step.secs()
        + r.compact.secs()
        + r.probe.secs()
        + canon.map_or(0.0, |c| c.secs())
        + times.pass;
    m("layers.coverage", replayed / times.seq_check, "ratio");
    if let Some(c) = canon {
        m("symmetry.canon_ns", c.ns_per(), "ns");
    }
}

/// `kset_exhaustive` layers: engine timings, then step/outcome/intern
/// replays over the default-thread graph.
pub fn kset_block(spans: &mut Spans, rng: &mut SplitMix) {
    spans.next_op();
    let block = spans.begin("layers.kset");
    let inputs = kset_inputs(rng);
    let (protocol, objects) = kset_protocol(&inputs);
    let explorer = Explorer::new(&protocol, &objects);
    let run = |threads| {
        let graph = explorer.exploration().threads(threads).run();
        graph.expect("k-set race explores")
    };
    let (times, graph) = engine_times(spans, "kset", 3, run, |t| kset_op(&inputs, t));
    let replays = replay(spans, "kset", &explorer, &graph);
    report_exhaustive("kset", &times, &graph, &replays, None);
    spans.end(block, graph.configs.len() as u64);
}

/// `dac_symmetric` layers: the same, plus canonicalization and the
/// raw-to-orbit reduction ratio.
pub fn dac_block(spans: &mut Spans, rng: &mut SplitMix) {
    spans.next_op();
    let block = spans.begin("layers.dac");
    let (d, bit) = dac_variant(rng);
    let (protocol, objects) = dac_protocol(d, bit);
    let explorer = Explorer::new(&protocol, &objects);
    let run = |threads| {
        let graph = explorer.exploration().symmetric().threads(threads).run();
        graph.expect("Algorithm 2 explores")
    };
    let (mut times, graph) = engine_times(spans, "dac", 5, run, |t| dac_op(d, bit, t));
    // The n-DAC check is the harness's own, so its pass is timed directly.
    let (verdict, pass) = timed(spans, "dac.verdict", || {
        let verdict = dac_verdict(&explorer, &graph, protocol.inputs(), Pid(d));
        (verdict, graph.configs.len() as u64)
    });
    dac_check(d, bit, verdict, &graph).emit();
    times.pass = pass.secs();
    let replays = replay(spans, "dac", &explorer, &graph);
    let canon = canon_layer(spans, &explorer, &graph);
    report_exhaustive("dac", &times, &graph, &replays, Some(canon));
    let (raw, _) = timed(spans, "dac.explore.run.unreduced", || {
        let raw = explorer.exploration().run().expect("Algorithm 2 explores");
        let configs = raw.configs.len() as u64;
        (raw, configs)
    });
    metric(
        "dac.symmetry.reduction_ratio",
        raw.configs.len() as f64 / graph.configs.len() as f64,
        "ratio",
    );
    spans.end(block, graph.configs.len() as u64);
}

/// `vote_sampling` layers: two sweeps at one thread and two at the default
/// count, alternating; each side reports its faster sweep. Every sweep's
/// results are checked, so thread-count independence is part of
/// correctness.
pub fn vote_block(spans: &mut Spans, rng: &mut SplitMix) {
    spans.next_op();
    let block = spans.begin("layers.vote");
    let variant = rng.below(VOTE_VARIANTS);
    let mut sweep = |name: &str, threads: usize| {
        let span = spans.begin(name);
        let (mut s, mut runs, mut steps) = (0.0, 0u64, 0u64);
        for cell in 0..vote_cells().len() {
            let result = vote_op(variant, cell, threads);
            s += result.elapsed.as_secs_f64();
            runs += result.work;
            steps += result
                .check
                .fields
                .iter()
                .find(|(k, _)| *k == "steps")
                .map_or(0, |&(_, v)| v);
            result.check.emit();
        }
        spans.end(span, runs);
        (s, runs, steps)
    };
    let (seq_a, runs, steps) = sweep("sampling.sweep.threads1", 1);
    let (par_a, _, _) = sweep("sampling.sweep", 0);
    let (seq_b, _, _) = sweep("sampling.sweep.threads1", 1);
    let (par_b, _, _) = sweep("sampling.sweep", 0);
    let (seq_s, par_s) = (seq_a.min(seq_b), par_a.min(par_b));
    metric("sampling.seq_s", seq_s, "s");
    metric("sampling.par_speedup", seq_s / par_s, "ratio");
    metric(
        "sampling.steps_per_run",
        steps as f64 / runs.max(1) as f64,
        "steps",
    );
    spans.end(block, runs);
}
