//! Cross-field invariants of [`lbsa_explorer::ExploreStats`], pinned on the
//! real experiment workloads: the per-level breakdown must reconcile with
//! the aggregate counters, and the phase-time breakdown must stay within
//! the measured wall clock. These are the numbers the observability layer
//! (`metrics.explore` in the report artifacts, `summary()`'s
//! expand-/merge-bound diagnosis) reports to users — a drift between the
//! levels and the totals would silently corrupt every trace downstream.
//!
//! Every exhaustive case runs at threads 1/2/4/8, under the natural cost
//! gate and with `force_parallel` (the work-stealing pool recruited at the
//! root): a handed-off run's levels come from the canonical renumbering
//! pass, so they must reconcile exactly like the sequential ones.

use lbsa_bench::mixed_binary_inputs;
use lbsa_core::{AnyObject, ObjId, Pid};
use lbsa_explorer::{
    Exploration, ExplorationGraph, ExploreStats, Explorer, Limits, MemorySink, Registry,
    SampleConfig, Tracer,
};
use lbsa_protocols::consensus_protocols::ConsensusViaObject;
use lbsa_protocols::dac::DacFromPac;
use lbsa_runtime::process::Protocol;
use lbsa_support::json::Json;
use lbsa_support::obs::Event;
use std::time::Duration;

fn assert_invariants(stats: &ExploreStats, what: &str) {
    let level_width: usize = stats.levels.iter().map(|l| l.width).sum();
    assert_eq!(
        level_width, stats.expanded,
        "{what}: sum of level widths must equal expanded configs"
    );
    let level_transitions: usize = stats.levels.iter().map(|l| l.transitions).sum();
    assert_eq!(
        level_transitions, stats.transitions,
        "{what}: sum of level transitions must equal total transitions"
    );
    // The peak frontier is the widest level; a truncated run's last
    // frontier counts in full, though only part of it was expanded.
    let widest = stats.levels.iter().map(|l| l.width).max().unwrap_or(0);
    if stats.expanded == stats.configs {
        assert_eq!(widest, stats.peak_frontier, "{what}: peak frontier");
    } else {
        assert!(widest <= stats.peak_frontier, "{what}: peak frontier");
    }
    if let Some(recruit) = stats.recruit {
        assert!(recruit.level <= stats.levels.len(), "{what}: recruit level");
        // The natural gate caps the pool at the machine's cores; a
        // forced hand-off takes every thread it is given.
        assert!(
            (1..stats.threads).contains(&recruit.helpers),
            "{what}: helper count"
        );
        if stats.work_stealing() {
            assert_eq!(
                stats.workers.len(),
                recruit.helpers + 1,
                "{what}: one row per worker"
            );
            let pooled: usize = stats.levels[recruit.level..].iter().map(|l| l.width).sum();
            assert_eq!(
                stats.workers.iter().map(|w| w.expanded).sum::<usize>(),
                pooled,
                "{what}: the pool expanded exactly the levels from the recruit point"
            );
        }
    } else {
        assert!(stats.workers.is_empty(), "{what}: no pool, no worker rows");
    }
    for (i, l) in stats.levels.iter().enumerate() {
        assert_eq!(
            l.level, i,
            "{what}: level indices must be 0..depth in order"
        );
    }
    assert!(
        stats.phases.measured() <= stats.elapsed,
        "{what}: phase breakdown ({:?}) cannot exceed wall clock ({:?})",
        stats.phases.measured(),
        stats.elapsed
    );
}

/// Runs `build` at threads 1/2/4/8, under the natural gate and forced,
/// checks the invariants on every run, and returns the graphs.
fn all_runs<'e, 'a: 'e, P: Protocol + 'a>(
    build: impl Fn() -> Exploration<'e, 'a, P>,
    what: &str,
) -> Vec<ExplorationGraph<P::LocalState>> {
    let mut graphs = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        for forced in [false, true] {
            let mut e = build().threads(threads);
            if forced {
                e = e.force_parallel();
            }
            let g = e.run().expect("explorable");
            assert_invariants(
                &g.stats,
                &format!("{what}, {threads} threads, forced {forced}"),
            );
            if forced && threads > 1 {
                let recruit = g.stats.recruit.expect("forced runs recruit");
                assert_eq!(recruit.helpers, threads - 1, "{what}: forced helper count");
            }
            graphs.push(g);
        }
    }
    graphs
}

#[test]
fn dac_exploration_stats_reconcile() {
    for n in [2usize, 3, 4] {
        let p = DacFromPac::new(mixed_binary_inputs(n), Pid(0), ObjId(0)).expect("n >= 2");
        let objects = vec![AnyObject::pac(n).expect("valid")];
        let explorer = Explorer::new(&p, &objects);
        all_runs(
            || explorer.exploration().limits(Limits::new(1_000_000)),
            &format!("dac n={n}"),
        );
    }
}

#[test]
fn truncated_exploration_stats_reconcile() {
    let p = DacFromPac::new(mixed_binary_inputs(4), Pid(0), ObjId(0)).expect("n >= 2");
    let objects = vec![AnyObject::pac(4).expect("valid")];
    let explorer = Explorer::new(&p, &objects);
    for budget in [1usize, 30, 100] {
        for g in all_runs(
            || explorer.exploration().max_configs(budget),
            &format!("dac n=4 truncated to {budget}"),
        ) {
            assert!(!g.complete);
            assert_eq!(g.stats.expanded, budget, "budget {budget} spent exactly");
        }
    }
}

#[test]
fn consensus_race_stats_reconcile() {
    let p = ConsensusViaObject::new(mixed_binary_inputs(4), ObjId(0));
    let objects = vec![AnyObject::consensus(4).expect("valid")];
    let explorer = Explorer::new(&p, &objects);
    all_runs(|| explorer.exploration(), "consensus race n=4");
}

#[test]
fn reduced_exploration_stats_reconcile() {
    for n in [4usize, 5, 6] {
        let p = DacFromPac::new(mixed_binary_inputs(n), Pid(0), ObjId(0)).expect("n >= 2");
        let objects = vec![AnyObject::pac(n).expect("valid")];
        let explorer = Explorer::new(&p, &objects);
        for g in all_runs(
            || explorer.exploration().symmetric(),
            &format!("dac n={n} reduced"),
        ) {
            assert!(g.stats.reduced, "symmetric run must set the reduced flag");
        }
    }
}

/// A run handed off at the root reconciles through the pool's own
/// counters too: every discovered config is either a local pop or a
/// steal, and on a complete run every transition either discovered a new
/// config or hit the dedup index.
#[test]
fn work_stealing_stats_reconcile() {
    let p = DacFromPac::new(mixed_binary_inputs(4), Pid(0), ObjId(0)).expect("n >= 2");
    let objects = vec![AnyObject::pac(4).expect("valid")];
    for threads in [2usize, 4, 8] {
        let g = Explorer::new(&p, &objects)
            .exploration()
            .force_parallel()
            .threads(threads)
            .run()
            .expect("explorable");
        let what = format!("dac n=4 work-stealing, {threads} threads");
        let stats = &g.stats;
        assert!(stats.work_stealing(), "{what}: the pool built the graph");
        assert!(
            !stats.levels.is_empty(),
            "{what}: the canonical pass reconstructs the levels"
        );
        assert!(g.complete, "{what}: unbounded run must complete");
        assert_eq!(
            stats.expanded,
            g.configs.len(),
            "{what}: complete run expands every config"
        );
        assert_eq!(
            stats.transitions,
            stats.dedup_hits + g.configs.len() - 1,
            "{what}: every transition is a dedup hit or a discovery"
        );
        assert_eq!(
            stats.local_hits() + stats.steals(),
            g.configs.len() as u64,
            "{what}: every config is popped locally or stolen"
        );
        assert!(
            stats.phases.measured() <= stats.elapsed,
            "{what}: phase breakdown cannot exceed wall clock"
        );
    }
}

/// Work-stealing plus symmetry reduction: the canonicalization counters
/// must account for every transition of a complete reduced run.
#[test]
fn work_stealing_reduced_stats_reconcile() {
    let p = DacFromPac::new(mixed_binary_inputs(4), Pid(0), ObjId(0)).expect("n >= 2");
    let objects = vec![AnyObject::pac(4).expect("valid")];
    let g = Explorer::new(&p, &objects)
        .exploration()
        .force_parallel()
        .threads(2)
        .symmetric()
        .run()
        .expect("explorable");
    let stats = &g.stats;
    assert!(stats.reduced && stats.work_stealing());
    assert_eq!(
        stats.canon_patches + stats.canon_full,
        stats.transitions as u64,
        "dac n=4 ws+reduced: every successor was canonicalized, by patch or in full"
    );
}

#[test]
fn forced_parallel_stats_reconcile() {
    let p = DacFromPac::new(mixed_binary_inputs(4), Pid(0), ObjId(0)).expect("n >= 2");
    let objects = vec![AnyObject::pac(4).expect("valid")];
    let g = Explorer::new(&p, &objects)
        .exploration()
        .threads(2)
        .force_parallel()
        .run()
        .expect("explorable");
    let recruit = g.stats.recruit.expect("forced parallel run must recruit");
    assert_eq!(
        (recruit.level, recruit.helpers, recruit.rerun),
        (0, 1, false)
    );
    assert!(g.stats.phases.merge > Duration::ZERO, "assembly is timed");
    assert_invariants(&g.stats, "dac n=4 forced-parallel");
}

/// Shared schema/ordering checks on a run's `progress` event stream: every
/// event carries the numeric fields `exp_report --validate-trace` demands,
/// `configs` and timestamps never go backwards, and the stream ends with
/// exactly one `final` event. The strategy tags follow `strategies` in
/// order (an exhaustive run is `level-sync` until it recruits, then
/// `work-stealing`), and the last one closes the stream.
fn assert_progress_invariants(events: &[Event], strategies: &[&str], what: &str) {
    assert!(!events.is_empty(), "{what}: at least the final event");
    let mut prev_configs = -1i64;
    let mut prev_t = 0u64;
    let mut phase = 0usize;
    for e in events {
        assert_eq!(e.name, "progress");
        let tag = e.fields.get("strategy").and_then(Json::as_str);
        let at = strategies
            .iter()
            .position(|s| Some(*s) == tag)
            .unwrap_or_else(|| panic!("{what}: unexpected strategy tag {tag:?}"));
        assert!(at >= phase, "{what}: strategy tags out of order");
        phase = at;
        let configs = e
            .fields
            .get("configs")
            .and_then(Json::as_i64)
            .unwrap_or_else(|| panic!("{what}: numeric configs"));
        assert!(
            configs >= prev_configs,
            "{what}: configs must be monotone ({prev_configs} -> {configs})"
        );
        prev_configs = configs;
        assert!(
            e.t_us >= prev_t,
            "{what}: event timestamps must not regress"
        );
        prev_t = e.t_us;
        for field in [
            "configs_per_sec",
            "ema_configs_per_sec",
            "frontier_depth",
            "workers",
            "utilization",
            "eta_us",
            "mem_bytes",
            "elapsed_us",
        ] {
            assert!(
                e.fields.get(field).and_then(Json::as_f64).is_some(),
                "{what}: progress events carry numeric {field}"
            );
        }
    }
    let finals = events
        .iter()
        .filter(|e| e.fields.get("final").and_then(Json::as_bool) == Some(true))
        .count();
    assert_eq!(finals, 1, "{what}: exactly one final event");
    assert_eq!(
        events
            .last()
            .and_then(|e| e.fields.get("strategy").and_then(Json::as_str)),
        strategies.last().copied(),
        "{what}: the stream ends in the last strategy"
    );
    assert_eq!(
        events
            .last()
            .and_then(|e| e.fields.get("final").and_then(Json::as_bool)),
        Some(true),
        "{what}: the final event closes the stream"
    );
}

/// The acceptance workload of the live-observability layer: a 4-thread
/// T2 (DAC) run handed to the work-stealing pool at the root, streaming
/// progress at a short cadence. The
/// events must be schema-valid, monotone, and reconcile against the final
/// [`ExploreStats`]; the run is long enough (n = 6 in a debug build) that
/// several periodic ticks land before the final event.
#[test]
fn work_stealing_progress_events_reconcile_with_final_stats() {
    let p = DacFromPac::new(mixed_binary_inputs(6), Pid(0), ObjId(0)).expect("n >= 2");
    let objects = vec![AnyObject::pac(6).expect("valid")];
    let sink = MemorySink::new();
    let registry = Registry::new();
    let period = Duration::from_millis(1);
    let g = Explorer::new(&p, &objects)
        .exploration()
        .force_parallel()
        .threads(4)
        .registry(registry.clone())
        .progress_every(period)
        .trace(Tracer::new(sink.clone()))
        .run()
        .expect("explorable");
    let events: Vec<Event> = sink
        .events()
        .into_iter()
        .filter(|e| e.name == "progress")
        .collect();
    assert_progress_invariants(&events, &["level-sync", "work-stealing"], "dac n=6 ws");
    if g.stats.elapsed >= period * 10 {
        assert!(
            events.len() >= 5,
            "a {:?} run on a {period:?} cadence must tick repeatedly, got {}",
            g.stats.elapsed,
            events.len()
        );
    }
    let last = events.last().expect("nonempty");
    assert_eq!(
        last.fields.get("configs").and_then(Json::as_i64),
        i64::try_from(g.stats.expanded).ok(),
        "the final progress event carries the run's expansion total"
    );
    assert_eq!(
        last.fields.get("frontier_depth").and_then(Json::as_i64),
        Some(0),
        "the frontier is drained at the end"
    );
    assert_eq!(last.fields.get("eta_us").and_then(Json::as_i64), Some(0));
    // The registry outlives the run: the snapshot agrees with the stats.
    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot.get("explore.configs").and_then(Json::as_i64),
        i64::try_from(g.stats.expanded).ok()
    );
    assert_eq!(
        snapshot.get("explore.transitions").and_then(Json::as_i64),
        i64::try_from(g.stats.transitions).ok()
    );
    assert_eq!(
        snapshot.get("mem.interner_bytes").and_then(Json::as_i64),
        i64::try_from(g.stats.interner_bytes).ok()
    );
    assert!(
        snapshot
            .get("mem.graph_bytes")
            .and_then(Json::as_i64)
            .is_some_and(|b| b > 0),
        "the graph gauge is set after a successful run"
    );
}

/// Runs that stay on the sequential BFS stream the same schema with the
/// `level-sync` strategy tag, and the live counters end exactly at the
/// stats totals.
#[test]
fn level_sync_progress_events_reconcile_with_final_stats() {
    let p = DacFromPac::new(mixed_binary_inputs(5), Pid(0), ObjId(0)).expect("n >= 2");
    let objects = vec![AnyObject::pac(5).expect("valid")];
    let sink = MemorySink::new();
    let registry = Registry::new();
    let g = Explorer::new(&p, &objects)
        .exploration()
        .threads(1)
        .registry(registry.clone())
        .progress_every(Duration::from_millis(1))
        .trace(Tracer::new(sink.clone()))
        .run()
        .expect("explorable");
    let events: Vec<Event> = sink
        .events()
        .into_iter()
        .filter(|e| e.name == "progress")
        .collect();
    assert_progress_invariants(&events, &["level-sync"], "dac n=5 level-sync");
    assert_eq!(
        registry
            .snapshot()
            .get("explore.configs")
            .and_then(Json::as_i64),
        i64::try_from(g.stats.expanded).ok()
    );
}

/// The sampling strategy streams progress through the same builder knob:
/// `sample.runs` drives the `configs` field and the budget gauge feeds a
/// budget-based ETA.
#[test]
fn sampling_progress_events_reconcile_with_the_report() {
    let inputs = mixed_binary_inputs(3);
    let p = ConsensusViaObject::new(inputs.clone(), ObjId(0));
    let objects = vec![AnyObject::consensus(3).expect("valid")];
    let sink = MemorySink::new();
    let registry = Registry::new();
    let verdict = Explorer::new(&p, &objects)
        .exploration()
        .sample(SampleConfig {
            runs: 4000,
            threads: 2,
            ..SampleConfig::default()
        })
        .registry(registry.clone())
        .progress_every(Duration::from_millis(1))
        .trace(Tracer::new(sink.clone()))
        .check_consensus(&inputs);
    assert!(
        !verdict.is_violated(),
        "consensus via a consensus object holds: {}",
        verdict.describe()
    );
    let events: Vec<Event> = sink
        .events()
        .into_iter()
        .filter(|e| e.name == "progress")
        .collect();
    assert_progress_invariants(&events, &["sampling"], "sampled consensus n=3");
    assert_eq!(
        registry
            .snapshot()
            .get("sample.runs")
            .and_then(Json::as_i64),
        Some(4000),
        "every budgeted run is mirrored into the registry"
    );
}
