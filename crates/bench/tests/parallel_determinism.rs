//! Parallel determinism: the exploration engine must build **byte-identical**
//! execution graphs for every worker thread count — node indices, edge
//! order, truncation behaviour, everything. These tests pin that contract on
//! the real experiment workloads (Algorithm 2, raw and symmetry-reduced),
//! on an intentionally cyclic protocol, and on randomized small protocols.
//!
//! Every case runs at threads 1/2/4/8, each both under the natural cost
//! gate and with [`force_parallel`](lbsa_explorer::Exploration::force_parallel),
//! which recruits the work-stealing pool at the root. Small graphs never
//! open the natural gate, so the forced runs are what keep the hand-off —
//! the pool, its canonical renumbering, and the sequential rerun of a
//! hand-off that would truncate — covered on every host. Each run must
//! match the `threads(1)` graph and its `structural_digest`. One case runs
//! at the auto thread count, so CI's `LBSA_EXPLORE_THREADS` matrix drives
//! the forced hand-off too.

use lbsa_core::value::int;
use lbsa_core::{AnyObject, ObjId, Op, Pid, Value};
use lbsa_explorer::checker::Violation;
use lbsa_explorer::verdict::{verdict_dac_graph, verdict_k_set_agreement_graph, Outcome};
use lbsa_explorer::{Exploration, ExplorationGraph, Explorer, Limits, MemorySink, Tracer};
use lbsa_protocols::dac::DacFromPac;
use lbsa_runtime::process::{Protocol, Step, Symmetry};
use lbsa_support::check::run_cases;
use lbsa_support::rng::SmallRng;

/// Thread counts every case runs at.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Field-by-field graph equality with a readable failure message.
/// (`ExplorationGraph` deliberately does not implement `PartialEq`; graphs
/// from different explorations are not meant to be compared in production
/// code.)
fn assert_same_graph<L: Clone + Eq + std::hash::Hash + std::fmt::Debug>(
    a: &ExplorationGraph<L>,
    b: &ExplorationGraph<L>,
    what: &str,
) {
    assert_eq!(a.configs, b.configs, "{what}: configurations differ");
    assert_eq!(a.edges, b.edges, "{what}: edges differ");
    assert_eq!(a.expanded, b.expanded, "{what}: expanded flags differ");
    assert_eq!(a.complete, b.complete, "{what}: completeness differs");
    assert_eq!(
        a.transitions, b.transitions,
        "{what}: transition counts differ"
    );
    assert_eq!(
        a.structural_digest(),
        b.structural_digest(),
        "{what}: structural digests differ"
    );
    // The stats that describe the graph's shape come from the canonical
    // pass on a handed-off run, so they match the sequential ones too.
    assert_eq!(a.stats.configs, b.stats.configs, "{what}: stats.configs");
    assert_eq!(
        a.stats.dedup_hits, b.stats.dedup_hits,
        "{what}: stats.dedup_hits"
    );
    assert_eq!(
        a.stats.peak_frontier, b.stats.peak_frontier,
        "{what}: stats.peak_frontier"
    );
    assert_eq!(a.stats.depth(), b.stats.depth(), "{what}: stats.depth()");
}

/// Runs `build` at every thread count in [`THREADS`], under the natural
/// gate and with `force_parallel`, and checks each graph against the
/// `threads(1)` one. Returns the reference graph.
fn assert_thread_count_independent<'e, 'a: 'e, P>(
    build: impl Fn() -> Exploration<'e, 'a, P>,
    what: &str,
) -> ExplorationGraph<P::LocalState>
where
    P: Protocol + 'a,
    P::LocalState: Clone + Eq + std::hash::Hash + std::fmt::Debug,
{
    let reference = build().threads(1).run().expect("exploration succeeds");
    for threads in THREADS {
        for forced in [false, true] {
            let mut e = build().threads(threads);
            if forced {
                e = e.force_parallel();
            }
            let graph = e.run().expect("exploration succeeds");
            let label = format!("{what}, {threads} threads, forced {forced}");
            assert_same_graph(&reference, &graph, &label);
            if forced && threads > 1 {
                let recruit = graph.stats.recruit.expect("forced runs recruit");
                assert_eq!(recruit.level, 0, "{label}: forced runs recruit at the root");
                assert_eq!(recruit.helpers, threads - 1, "{label}: helper count");
                // A complete graph comes from the pool; a truncated one
                // from the sequential rerun.
                assert_eq!(recruit.rerun, !reference.complete, "{label}: rerun");
            }
        }
    }
    reference
}

fn mixed_binary_inputs(count: usize) -> Vec<Value> {
    (0..count).map(|i| Value::Int((i % 2) as i64)).collect()
}

#[test]
fn t2_dac_graphs_are_thread_count_independent() {
    for n in [2usize, 3, 4, 5] {
        let p = DacFromPac::new(mixed_binary_inputs(n), Pid(0), ObjId(0)).unwrap();
        let objects = vec![AnyObject::pac(n).unwrap()];
        let explorer = Explorer::new(&p, &objects);
        let graph =
            assert_thread_count_independent(|| explorer.exploration(), &format!("T2 n={n}"));
        assert!(graph.complete);
    }
}

#[test]
fn t2_dac_symmetric_graphs_are_thread_count_independent() {
    for n in [3usize, 5, 6] {
        // Process 0 holds 1, the rest 0: symmetric under S_{n-1}.
        let p = DacFromPac::new(lbsa_bench::mixed_binary_inputs(n), Pid(0), ObjId(0)).unwrap();
        let objects = vec![AnyObject::pac(n).unwrap()];
        let explorer = Explorer::new(&p, &objects);
        let graph = assert_thread_count_independent(
            || explorer.exploration().symmetric(),
            &format!("symmetric T2 n={n}"),
        );
        assert!(graph.complete && graph.stats.reduced);
    }
}

#[test]
fn t2_dac_truncated_graphs_are_thread_count_independent() {
    // Truncated runs must equal the `threads(1)` BFS prefix; a forced
    // hand-off runs past the budget and is redone sequentially.
    let p = DacFromPac::new(mixed_binary_inputs(3), Pid(0), ObjId(0)).unwrap();
    let objects = vec![AnyObject::pac(3).unwrap()];
    let explorer = Explorer::new(&p, &objects);
    for budget in [1usize, 7, 40, 73, 74] {
        let graph = assert_thread_count_independent(
            || explorer.exploration().max_configs(budget),
            &format!("T2 n=3 truncated to {budget}"),
        );
        assert_eq!(
            graph.complete,
            budget >= graph.configs.len(),
            "budget {budget}"
        );
    }
    let p = DacFromPac::new(lbsa_bench::mixed_binary_inputs(5), Pid(0), ObjId(0)).unwrap();
    let objects = vec![AnyObject::pac(5).unwrap()];
    let explorer = Explorer::new(&p, &objects);
    for budget in [20usize, 60] {
        assert_thread_count_independent(
            || explorer.exploration().symmetric().max_configs(budget),
            &format!("symmetric T2 n=5 truncated to {budget}"),
        );
    }
}

#[test]
fn forced_hand_off_over_budget_falls_back_to_the_sequential_engine() {
    let p = DacFromPac::new(mixed_binary_inputs(4), Pid(0), ObjId(0)).unwrap();
    let objects = vec![AnyObject::pac(4).unwrap()];
    let explorer = Explorer::new(&p, &objects);
    let budget = 100;
    let sequential = explorer
        .exploration()
        .max_configs(budget)
        .threads(1)
        .run()
        .unwrap();
    assert!(!sequential.complete);
    let forced = explorer
        .exploration()
        .max_configs(budget)
        .threads(2)
        .force_parallel()
        .run()
        .unwrap();
    let recruit = forced.stats.recruit.expect("the forced run recruited");
    assert!(recruit.rerun, "the pool ran past the budget");
    assert!(!forced.stats.work_stealing());
    assert!(
        forced.stats.workers.is_empty(),
        "the rerun graph is sequential"
    );
    assert_same_graph(&sequential, &forced, "forced hand-off over budget");
    assert_eq!(forced.stats.expanded, budget);

    // Under symmetry reduction, the run-scoped accounting describes the
    // rerun alone: every transition is canonicalized once (a patch or a
    // full pass), exactly as in the sequential run, and the abandoned
    // pool leaves nothing in the counters or histograms.
    let p = DacFromPac::new(lbsa_bench::mixed_binary_inputs(5), Pid(0), ObjId(0)).unwrap();
    let objects = vec![AnyObject::pac(5).unwrap()];
    let explorer = Explorer::new(&p, &objects);
    let budget = 60;
    let sequential = explorer
        .exploration()
        .symmetric()
        .max_configs(budget)
        .threads(1)
        .run()
        .unwrap();
    // Traced, so the abandoned pool's per-task histogram would show.
    let forced = explorer
        .exploration()
        .symmetric()
        .max_configs(budget)
        .threads(2)
        .force_parallel()
        .trace(Tracer::new(MemorySink::new()))
        .run()
        .unwrap();
    assert!(forced.stats.recruit.expect("recruited").rerun);
    assert_same_graph(&sequential, &forced, "symmetric hand-off over budget");
    let (s, f) = (&sequential.stats, &forced.stats);
    assert_eq!(
        f.canon_patches + f.canon_full,
        f.transitions as u64,
        "one canonicalization per transition"
    );
    assert_eq!(
        (f.canon_calls, f.canon_patches, f.canon_full),
        (s.canon_calls, s.canon_patches, s.canon_full),
        "canonicalization counters of the rerun only"
    );
    assert_eq!(f.hist.level_expand.count(), f.levels.len() as u64);
    assert!(f.hist.task_expand.is_empty() && f.hist.steal.is_empty());
    assert!(!f.hist.canonicalize.is_empty());
}

#[test]
fn auto_thread_count_forced_hand_off_matches_one_thread() {
    // `threads(0)` resolves through `LBSA_EXPLORE_THREADS`, so the CI
    // matrix (1, 2, host maximum) drives the forced hand-off here.
    let p = DacFromPac::new(mixed_binary_inputs(4), Pid(0), ObjId(0)).unwrap();
    let objects = vec![AnyObject::pac(4).unwrap()];
    let explorer = Explorer::new(&p, &objects);
    for limits in [Limits::default(), Limits::new(50)] {
        let reference = explorer
            .exploration()
            .limits(limits)
            .threads(1)
            .run()
            .unwrap();
        let auto = explorer
            .exploration()
            .limits(limits)
            .threads(0)
            .force_parallel()
            .run()
            .unwrap();
        assert_same_graph(&reference, &auto, &format!("auto threads, {limits:?}"));
        assert_eq!(
            auto.stats.recruit.is_some(),
            auto.stats.threads > 1,
            "forced runs recruit exactly when they have helpers"
        );
    }
}

/// One process proposing to a 2-SA object forever: the graph is a cycle, so
/// the frontier never drains by termination — only by deduplication.
#[derive(Debug)]
struct ForeverProposer;

impl Protocol for ForeverProposer {
    type LocalState = ();

    fn num_processes(&self) -> usize {
        1
    }

    fn init(&self, _pid: Pid) {}

    fn pending_op(&self, _pid: Pid, _s: &()) -> (ObjId, Op) {
        (ObjId(0), Op::Propose(Value::Int(1)))
    }

    fn on_response(&self, _pid: Pid, _s: &(), _resp: Value) -> Step<()> {
        Step::Continue(())
    }
}

#[test]
fn cyclic_graphs_are_thread_count_independent() {
    let p = ForeverProposer;
    let objects = vec![AnyObject::strong_sa()];
    let explorer = Explorer::new(&p, &objects);
    let sequential = assert_thread_count_independent(|| explorer.exploration(), "cyclic");
    assert!(
        sequential.complete,
        "finite state space despite the infinite execution"
    );
    assert!(sequential.has_cycle());
}

/// What a [`ScriptedProtocol`] process does with the response it got, as a
/// function of its current phase.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum ScriptEntry {
    /// Decide a scripted constant.
    Decide(i64),
    /// Decide whatever the object responded.
    DecideResponse,
    /// Advance to the next phase (wrapping — cycles are intended).
    Continue,
}

/// A randomly generated protocol: each process walks a small cyclic phase
/// script, proposing scripted values and deciding per its script. Pure by
/// construction, so it satisfies the determinism contract the engine
/// relies on, while exercising cycles, asymmetric processes, and (on
/// nondeterministic objects) multi-outcome branching.
#[derive(Debug)]
struct ScriptedProtocol {
    phases: usize,
    /// `script[pid][phase]`.
    script: Vec<Vec<ScriptEntry>>,
    /// `proposal[pid][phase]`.
    proposal: Vec<Vec<i64>>,
}

impl ScriptedProtocol {
    fn random(rng: &mut SmallRng, n: usize, phases: usize) -> Self {
        let script = (0..n)
            .map(|_| {
                (0..phases)
                    .map(|_| match rng.random_range(0..4) {
                        0 => ScriptEntry::Decide(rng.i64_range(0..3)),
                        1 => ScriptEntry::DecideResponse,
                        _ => ScriptEntry::Continue,
                    })
                    .collect()
            })
            .collect();
        let proposal = (0..n)
            .map(|_| (0..phases).map(|_| rng.i64_range(0..3)).collect())
            .collect();
        ScriptedProtocol {
            phases,
            script,
            proposal,
        }
    }
}

impl Protocol for ScriptedProtocol {
    type LocalState = u8;

    fn num_processes(&self) -> usize {
        self.script.len()
    }

    fn init(&self, _pid: Pid) -> u8 {
        0
    }

    fn pending_op(&self, pid: Pid, phase: &u8) -> (ObjId, Op) {
        (
            ObjId(0),
            Op::Propose(Value::Int(self.proposal[pid.index()][*phase as usize])),
        )
    }

    fn on_response(&self, pid: Pid, phase: &u8, resp: Value) -> Step<u8> {
        match &self.script[pid.index()][*phase as usize] {
            ScriptEntry::Decide(v) => Step::Decide(Value::Int(*v)),
            ScriptEntry::DecideResponse => Step::Decide(resp),
            ScriptEntry::Continue => Step::Continue(((*phase as usize + 1) % self.phases) as u8),
        }
    }
}

/// Runs with the pool recruited at the root, at an explicit worker count.
fn explore_ws<P: Protocol>(
    explorer: &Explorer<'_, P>,
    threads: usize,
) -> ExplorationGraph<P::LocalState> {
    explorer
        .exploration()
        .force_parallel()
        .threads(threads)
        .run()
        .expect("exploration succeeds")
}

/// The work-stealing run's own accounting: every configuration past the
/// root-level hand-off is popped locally or stolen exactly once.
fn assert_pool_accounting<L>(ws: &ExplorationGraph<L>, threads: usize, what: &str) {
    assert_eq!(ws.stats.work_stealing(), threads > 1, "{what}: recruited");
    if threads > 1 {
        assert_eq!(
            ws.stats.local_hits + ws.stats.steals,
            ws.configs.len() as u64,
            "{what}: every config is either popped locally or stolen"
        );
    }
}

#[test]
fn ws_dac_verdicts_match_deterministic_across_thread_counts() {
    for n in [2usize, 3, 4] {
        let p = DacFromPac::new(mixed_binary_inputs(n), Pid(0), ObjId(0)).unwrap();
        let objects = vec![AnyObject::pac(n).unwrap()];
        let explorer = Explorer::new(&p, &objects);
        let solo_bound = 6 * n;
        let det = explorer.exploration().threads(1).run().unwrap();
        let det_verdict = verdict_dac_graph(&explorer, &det, &p.instance(), solo_bound);
        assert!(
            matches!(det_verdict.outcome, Outcome::Holds),
            "T2 n={n} must satisfy DAC: {det_verdict}"
        );
        for threads in THREADS {
            let ws = explore_ws(&explorer, threads);
            let what = format!("T2 n={n}, ws {threads} threads");
            assert_same_graph(&det, &ws, &what);
            assert_pool_accounting(&ws, threads, &what);
            let ws_verdict = verdict_dac_graph(&explorer, &ws, &p.instance(), solo_bound);
            assert_eq!(
                det_verdict, ws_verdict,
                "T2 n={n}: verdict differs on the work-stealing graph ({threads} threads)"
            );
        }
    }
}

/// Consensus with a broken adopt rule: a loser decides its own input, so
/// Agreement is violated — the work-stealing graph must yield the same
/// violated verdict, with the same witness, which confirms by replay.
#[derive(Debug)]
struct BrokenAdoptConsensus {
    inputs: Vec<Value>,
}

impl Protocol for BrokenAdoptConsensus {
    type LocalState = ();
    fn num_processes(&self) -> usize {
        self.inputs.len()
    }
    fn init(&self, _pid: Pid) {}
    fn pending_op(&self, pid: Pid, _s: &()) -> (ObjId, Op) {
        (ObjId(0), Op::Propose(self.inputs[pid.index()]))
    }
    fn on_response(&self, pid: Pid, _s: &(), resp: Value) -> Step<()> {
        let own = self.inputs[pid.index()];
        if resp == own {
            Step::Decide(resp)
        } else {
            Step::Decide(own)
        }
    }
}

#[test]
fn ws_broken_consensus_verdicts_match_deterministic_across_thread_counts() {
    let inputs = vec![int(0), int(1), int(2)];
    let p = BrokenAdoptConsensus {
        inputs: inputs.clone(),
    };
    let objects = vec![AnyObject::consensus(3).unwrap()];
    let explorer = Explorer::new(&p, &objects);
    let det = explorer.exploration().threads(1).run().unwrap();
    let det_verdict = verdict_k_set_agreement_graph(&explorer, &det, 1, &inputs);
    assert!(
        det_verdict.is_violated(),
        "the broken protocol must violate agreement: {det_verdict}"
    );
    for threads in THREADS {
        let ws = explore_ws(&explorer, threads);
        let what = format!("broken consensus, ws {threads} threads");
        assert_same_graph(&det, &ws, &what);
        assert_pool_accounting(&ws, threads, &what);
        let ws_verdict = verdict_k_set_agreement_graph(&explorer, &ws, 1, &inputs);
        // Identical graphs give identical verdicts, witness included.
        assert_eq!(det_verdict, ws_verdict, "{what}: verdict differs");
        assert!(
            matches!(
                ws_verdict.outcome,
                Outcome::Violated(Violation::Agreement { .. })
            ),
            "broken consensus: outcome differs on the work-stealing graph \
             ({threads} threads): {ws_verdict}"
        );
        let witness = ws_verdict.witness.as_ref().expect("witness extracted");
        witness
            .confirm(&explorer)
            .expect("work-stealing witness must confirm by replay");
    }
}

/// Fully symmetric race: every process proposes the same value, so the
/// process-permutation group is all of `S_n` and symmetry reduction
/// collapses the graph hard — the harshest setting for the work-stealing
/// engine's canon-memo + batched-index path.
#[derive(Debug)]
struct SymmetricRace {
    n: usize,
}

impl Protocol for SymmetricRace {
    type LocalState = ();
    fn num_processes(&self) -> usize {
        self.n
    }
    fn init(&self, _pid: Pid) {}
    fn pending_op(&self, _pid: Pid, _s: &()) -> (ObjId, Op) {
        (ObjId(0), Op::Propose(int(7)))
    }
    fn on_response(&self, _pid: Pid, _s: &(), resp: Value) -> Step<()> {
        Step::Decide(resp)
    }
}

impl Symmetry for SymmetricRace {
    fn pid_classes(&self) -> Vec<u32> {
        vec![0; self.n]
    }
}

#[test]
fn ws_symmetric_reduction_matches_deterministic_across_thread_counts() {
    let p = SymmetricRace { n: 4 };
    let objects = vec![AnyObject::consensus(4).unwrap()];
    let explorer = Explorer::new(&p, &objects);
    let inputs = vec![int(7)];
    let det = explorer
        .exploration()
        .symmetric()
        .threads(1)
        .run()
        .expect("deterministic reduced exploration succeeds");
    assert!(det.stats.reduced);
    let det_verdict = verdict_k_set_agreement_graph(&explorer, &det, 1, &inputs);
    assert!(
        matches!(det_verdict.outcome, Outcome::Holds),
        "the symmetric race satisfies consensus: {det_verdict}"
    );
    for threads in THREADS {
        let ws = explorer
            .exploration()
            .symmetric()
            .threads(threads)
            .force_parallel()
            .run()
            .expect("work-stealing reduced exploration succeeds");
        assert!(ws.stats.reduced);
        let what = format!("symmetric race, ws {threads} threads");
        assert_same_graph(&det, &ws, &what);
        assert_pool_accounting(&ws, threads, &what);
        // The canonicalization effort is accounted identically: every
        // transition either patched a cached canonical form or recomputed
        // one in full.
        assert_eq!(
            ws.stats.canon_patches + ws.stats.canon_full,
            ws.stats.transitions as u64,
            "symmetric race ({threads} threads): canon accounting leaks"
        );
        let ws_verdict = verdict_k_set_agreement_graph(&explorer, &ws, 1, &inputs);
        assert_eq!(
            det_verdict, ws_verdict,
            "symmetric race: verdict differs on the work-stealing graph ({threads} threads)"
        );
    }
}

#[test]
fn random_small_protocols_are_thread_count_independent() {
    run_cases("parallel determinism on random protocols", 40, |rng| {
        let n = rng.random_range(1..4);
        let phases = rng.random_range(1..4);
        let p = ScriptedProtocol::random(rng, n, phases);
        let objects = vec![if rng.ratio(1, 2) {
            AnyObject::consensus(n).unwrap()
        } else {
            AnyObject::strong_sa()
        }];
        let explorer = Explorer::new(&p, &objects);
        // Mix complete and truncated explorations.
        let limits = if rng.ratio(1, 3) {
            Limits::new(rng.random_range(1..30))
        } else {
            Limits::default()
        };
        assert_thread_count_independent(
            || explorer.exploration().limits(limits),
            &format!("random protocol n={n} phases={phases}"),
        );
    });
}
