//! Whole-execution-space property checking for the paper's problems:
//! consensus, k-set agreement, wait-free termination and the n-DAC problem.
//!
//! The graph predicates here are the crate-internal core of the checking
//! terminals of [`crate::explore::Exploration`] (see [`crate::verdict`]),
//! which wrap their answers in a [`crate::verdict::Verdict`] with a
//! replayable witness. Every check runs over a **complete** exploration
//! graph, so an `Ok(_)` answer means the property holds in *every*
//! execution of the protocol — the same quantifier as the paper's theorem
//! statements. The n-DAC checker implements the exact four properties of
//! Section 4. Its solo-run Termination clauses (a) and (b) quantify over
//! every reachable configuration; one memoized pass computes each
//! process's longest solo run from every node, off the graph's edges.
//!
//! The checkers also run over a **symmetry-reduced** graph (built with
//! [`crate::explore::Exploration::symmetric`]): every predicate here is
//! orbit-invariant. Agreement, validity and undecided-terminal inspect only
//! the multiset of decisions and statuses, which pid permutations preserve;
//! the pid-specific n-DAC predicates are invariant because the
//! [`lbsa_runtime::process::Symmetry`] contract makes distinguished roles
//! singleton classes, and solo runs from a canonical representative cover
//! those of its orbit by equivariance. A quotient's edges rename the
//! stepping process, so there the solo runs are stepped concretely, still
//! with one memo per process. The verdict layer translates violations back
//! to real executions.

use crate::adversary::{find_nontermination, NonTerminationWitness};
use crate::config::Configuration;
use crate::explore::{ExplorationGraph, Explorer};
use lbsa_core::{Pid, Value};
use lbsa_runtime::error::RuntimeError;
use lbsa_runtime::process::{ProcStatus, Protocol};
use lbsa_support::hash::FxHashMap;
use std::convert::Infallible;
use std::fmt;
use std::hash::Hash;

/// Statistics of a successful check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckStats {
    /// Configurations examined.
    pub configs: usize,
    /// Transitions examined.
    pub transitions: usize,
}

/// A property violation found by a checker (or an inability to conclude).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Violation {
    /// The exploration graph was truncated; the verdict is inconclusive.
    Truncated,
    /// More distinct values decided than the problem allows.
    Agreement {
        /// Configuration where the violation is visible.
        config: usize,
        /// The decided values.
        values: Vec<Value>,
    },
    /// A decided value that no admissible process proposed.
    Validity {
        /// Configuration where the violation is visible.
        config: usize,
        /// The offending value.
        value: Value,
    },
    /// An infinite execution in which some process steps forever without
    /// deciding.
    NonTermination(NonTerminationWitness),
    /// A terminal configuration in which some process neither decided nor
    /// (where permitted) aborted.
    UndecidedTerminal {
        /// The terminal configuration.
        config: usize,
    },
    /// A solo run of `pid` from `config` failed to terminate within the
    /// bound (n-DAC Termination (a)/(b)).
    SoloNonTermination {
        /// Starting configuration of the failing solo run.
        config: usize,
        /// The process run solo.
        pid: Pid,
    },
    /// n-DAC Nontriviality: the distinguished process aborted although no
    /// other process had taken a step.
    Nontriviality {
        /// Configuration where the abort is visible.
        config: usize,
    },
    /// The protocol itself misbehaved (spec error, bad object id).
    Runtime(RuntimeError),
    /// A violation found by a sampling sweep rather than an exhaustive
    /// graph check (see [`crate::sampling`]): tagged with the reproducing
    /// seed instead of a configuration index.
    Sampled(crate::sampling::SampleViolation),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Truncated => write!(f, "exploration truncated; verdict inconclusive"),
            Violation::Agreement { config, values } => {
                write!(f, "agreement violated in configuration {config}: decided {values:?}")
            }
            Violation::Validity { config, value } => {
                write!(f, "validity violated in configuration {config}: decided {value}")
            }
            Violation::NonTermination(w) => write!(
                f,
                "non-termination: cycle of length {} (victims: {:?})",
                w.cycle.len(),
                w.victims
            ),
            Violation::UndecidedTerminal { config } => {
                write!(f, "terminal configuration {config} leaves a process undecided")
            }
            Violation::SoloNonTermination { config, pid } => {
                write!(f, "{pid} run solo from configuration {config} does not terminate")
            }
            Violation::Nontriviality { config } => write!(
                f,
                "nontriviality violated in configuration {config}: p aborted before any other process stepped"
            ),
            Violation::Runtime(e) => write!(f, "runtime error during checking: {e}"),
            Violation::Sampled(v) => write!(f, "{v}"),
        }
    }
}

impl From<RuntimeError> for Violation {
    fn from(e: RuntimeError) -> Self {
        Violation::Runtime(e)
    }
}

/// The work a check over `graph` examined.
pub(crate) fn stats<L>(graph: &ExplorationGraph<L>) -> CheckStats {
    CheckStats {
        configs: graph.configs.len(),
        transitions: graph.transitions,
    }
}

/// Checks the k-set agreement properties over a complete graph:
///
/// * **k-Agreement** — at most `k` distinct values are decided in any
///   configuration,
/// * **Validity** — every decided value is in `valid_inputs`,
/// * **Wait-free termination** — see [`wait_free`].
///
/// Returns the first [`Violation`] found.
pub(crate) fn k_set_agreement<L: Clone + Eq + std::hash::Hash + std::fmt::Debug>(
    graph: &ExplorationGraph<L>,
    k: usize,
    valid_inputs: &[Value],
) -> Result<CheckStats, Violation> {
    if !graph.complete {
        return Err(Violation::Truncated);
    }
    agreement_and_validity(graph, k, |_, v| valid_inputs.contains(v))?;
    wait_free(graph)
}

/// The first configuration, by index, deciding more than `k` values or a
/// value that `valid` rejects there.
fn agreement_and_validity<L: Clone + Eq + std::hash::Hash + std::fmt::Debug>(
    graph: &ExplorationGraph<L>,
    k: usize,
    valid: impl Fn(&Configuration<L>, &Value) -> bool,
) -> Result<(), Violation> {
    for (idx, config) in graph.configs.iter().enumerate() {
        let decided = config.distinct_decisions();
        if decided.len() > k {
            return Err(Violation::Agreement {
                config: idx,
                values: decided,
            });
        }
        if let Some(&value) = decided.iter().find(|v| !valid(config, v)) {
            return Err(Violation::Validity { config: idx, value });
        }
    }
    Ok(())
}

/// Checks wait-free termination over a complete graph: no infinite
/// execution, and every terminal configuration has all processes decided.
///
/// Returns the first [`Violation`] found.
pub(crate) fn wait_free<L: Clone + Eq + std::hash::Hash + std::fmt::Debug>(
    graph: &ExplorationGraph<L>,
) -> Result<CheckStats, Violation> {
    if !graph.complete {
        return Err(Violation::Truncated);
    }
    if let Some(w) = find_nontermination(graph) {
        return Err(Violation::NonTermination(w));
    }
    for idx in graph.terminal_indices() {
        if !graph.configs[idx].all_decided() {
            return Err(Violation::UndecidedTerminal { config: idx });
        }
    }
    Ok(stats(graph))
}

/// The n-DAC problem instance being checked (Section 4 of the paper).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DacInstance {
    /// The distinguished process `p` (the only one allowed to abort).
    pub distinguished: Pid,
    /// Each process's binary input, indexed by pid.
    pub inputs: Vec<Value>,
}

/// The longest solo run of a solo loop, or of a stop without a required
/// decision.
const UNBOUNDED: u32 = u32::MAX;

/// The longest solo run of `pid` from `config` if `pid` no longer runs
/// there: 0 when it stopped as the clause allows (decided or, unless it
/// `must_decide`, aborted or halted), [`UNBOUNDED`] otherwise.
fn stopped<L>(config: &Configuration<L>, pid: Pid, must_decide: bool) -> Option<u32> {
    match config.procs.get(pid.index()) {
        Some(ProcStatus::Running(_)) => None,
        Some(ProcStatus::Decided(_)) => Some(0),
        _ => Some(if must_decide { UNBOUNDED } else { 0 }),
    }
}

/// The longest solo run of one process, in its own steps, from `start`, a
/// node in which it runs; `successors` lists a node's solo successors, each
/// with its [`stopped`] value. The answer depends only on the node's solo
/// subtree, so one `memo` serves every start. In it `None` marks the search
/// path: reaching the path again is a solo loop, while branches that merge
/// are not. Returns [`UNBOUNDED`] as soon as the run provably exceeds
/// `bound`, which also ends searches of infinite state spaces.
fn longest_solo_run<N: Clone + Eq + Hash, E>(
    memo: &mut FxHashMap<N, Option<u32>>,
    start: N,
    bound: usize,
    mut successors: impl FnMut(&N, &mut Vec<(Option<u32>, N)>) -> Result<(), E>,
) -> Result<u32, E> {
    // The path: node, where its successors start in `pending`, its longest
    // run so far.
    let mut path: Vec<(N, usize, u32)> = Vec::new();
    let mut pending = vec![(None, start)];
    loop {
        let steps = match path.last() {
            Some(&(_, base, _)) if pending.len() == base => {
                let (node, _, steps) = path.pop().expect("a frame is open");
                memo.insert(node, Some(steps));
                steps
            }
            _ => match pending.pop().expect("the start or a successor is pending") {
                (Some(steps), _) => steps,
                (None, node) => match memo.get(&node) {
                    Some(known) => known.unwrap_or(UNBOUNDED),
                    None => {
                        // A new frame, settled like a zero-step successor:
                        // the node's own step.
                        memo.insert(node.clone(), None);
                        let base = pending.len();
                        successors(&node, &mut pending)?;
                        path.push((node, base, 0));
                        0
                    }
                },
            },
        };
        let Some(depth) = path.len().checked_sub(1) else {
            return Ok(steps);
        };
        let top = &mut path[depth].2;
        *top = (*top).max(steps.saturating_add(1));
        if depth.saturating_add(*top as usize) > bound {
            for (node, ..) in &path {
                memo.remove(node);
            }
            return Ok(UNBOUNDED);
        }
    }
}

/// [`longest_solo_run`] from a concrete configuration in which `pid` runs,
/// stepping its solo successors through the explorer: for quotient graphs,
/// whose edges rename the stepping process, and for witnesses.
///
/// # Errors
///
/// Propagates runtime errors.
pub(crate) fn stepped_solo_run<P: Protocol>(
    explorer: &Explorer<'_, P>,
    memo: &mut FxHashMap<Configuration<P::LocalState>, Option<u32>>,
    config: &Configuration<P::LocalState>,
    pid: Pid,
    must_decide: bool,
    bound: usize,
) -> Result<u32, RuntimeError> {
    longest_solo_run(memo, config.clone(), bound, |config, out| {
        let next = explorer.successors_of(config, pid)?;
        out.extend(next.into_iter().map(|c| (stopped(&c, pid, must_decide), c)));
        Ok(())
    })
}

impl<L> ExplorationGraph<L> {
    /// The longest solo run of `pid` from each configuration, in index
    /// order and in `pid`'s own steps, read off the graph's `pid` edges with
    /// one memo, as the iterator advances: `None` where it is unbounded (a
    /// solo loop or, when `must_decide`, a stop without deciding), 0 where
    /// `pid` has stopped. n-DAC Termination (a)/(b) asks it to stay within
    /// the solo bound wherever `pid` runs. No configuration is stepped.
    /// Complete raw graphs only: an unexpanded node lists no edges, and a
    /// quotient's edges rename the stepping process.
    pub fn longest_solo_runs(
        &self,
        pid: Pid,
        must_decide: bool,
    ) -> impl Iterator<Item = Option<usize>> + '_ {
        let mut memo = FxHashMap::default();
        let stop = move |v: usize| stopped(&self.configs[v], pid, must_decide);
        (0..self.len()).map(move |v| {
            let steps = stop(v).unwrap_or_else(|| {
                let Ok(steps) = longest_solo_run(&mut memo, v, usize::MAX, |&v, out| {
                    let edges = self.edges[v].iter().filter(|e| e.pid == pid);
                    out.extend(edges.map(|e| (stop(e.target), e.target)));
                    Ok::<_, Infallible>(())
                });
                steps
            });
            (steps != UNBOUNDED).then_some(steps as usize)
        })
    }
}

/// Checks all four n-DAC properties of Section 4 over every execution of
/// an already-built graph of `explorer`'s protocol:
///
/// * **Agreement** — no configuration contains two distinct decisions;
/// * **Validity** — every decided value is the input of some process that
///   has not aborted;
/// * **Termination (a)** — from every reachable configuration, `p` run solo
///   decides or aborts within `solo_bound` of its own steps;
/// * **Termination (b)** — from every reachable configuration, each `q ≠ p`
///   run solo decides within `solo_bound` of its own steps;
/// * **Nontriviality** — in no execution does `p` abort before some other
///   process has taken a step.
///
/// Termination reads the solo runs off the graph's edges or, on a
/// `quotient` graph, steps them. Returns the first [`Violation`] found; for
/// Termination, configurations in index order, `p` before the `q ≠ p`.
pub(crate) fn dac<P: Protocol>(
    explorer: &Explorer<'_, P>,
    graph: &ExplorationGraph<P::LocalState>,
    instance: &DacInstance,
    solo_bound: usize,
    quotient: bool,
) -> Result<CheckStats, Violation> {
    if !graph.complete {
        return Err(Violation::Truncated);
    }
    let p = instance.distinguished;
    let n = explorer.protocol().num_processes();
    agreement_and_validity(graph, 1, |config, v| {
        (0..n).any(|q| instance.inputs.get(q) == Some(v) && !config.has_aborted(Pid(q)))
    })?;

    // Termination (a) and (b), `p` first, with one memo per process: the
    // runs are read off the edges, or stepped on a quotient.
    let mut runs: Vec<_> = (0..n)
        .filter(|_| !quotient)
        .map(|q| graph.longest_solo_runs(Pid(q), Pid(q) != p))
        .collect();
    let mut memos = vec![FxHashMap::default(); n];
    for (idx, config) in graph.configs.iter().enumerate() {
        for q in std::iter::once(p).chain((0..n).map(Pid).filter(|&q| q != p)) {
            let on_edges = runs.get_mut(q.index()).map(|r| r.next().flatten());
            if !config.procs[q.index()].is_running() {
                continue;
            }
            let steps = match on_edges {
                Some(steps) => steps.unwrap_or(usize::MAX),
                None => {
                    let memo = &mut memos[q.index()];
                    stepped_solo_run(explorer, memo, config, q, q != p, solo_bound)? as usize
                }
            };
            if steps > solo_bound {
                return Err(Violation::SoloNonTermination {
                    config: idx,
                    pid: q,
                });
            }
        }
    }

    // Nontriviality: no `p`-solo path reaches an abort of `p`.
    if let Some(path) = graph.bfs_path(|e| e.pid == p, |v| graph.configs[v].has_aborted(p)) {
        let config = path.last().map_or(0, |e| e.target);
        return Err(Violation::Nontriviality { config });
    }

    Ok(stats(graph))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Limits;
    use lbsa_core::value::int;
    use lbsa_core::{AnyObject, ObjId, Op};
    use lbsa_runtime::process::Step;

    /// Explores under `limits` and runs the k-set agreement predicate.
    fn check_k_set_agreement<P: Protocol>(
        explorer: &Explorer<'_, P>,
        k: usize,
        valid_inputs: &[Value],
        limits: Limits,
    ) -> Result<CheckStats, Violation> {
        let graph = explorer.exploration().limits(limits).run()?;
        k_set_agreement(&graph, k, valid_inputs)
    }

    /// Whether `pid`, running in `config`, stops (decides, when
    /// `must_decide`) on every solo run within `bound` of its own steps.
    fn solo_run_ok<P: Protocol>(
        explorer: &Explorer<'_, P>,
        config: &Configuration<P::LocalState>,
        pid: Pid,
        bound: usize,
        must_decide: bool,
    ) -> bool {
        let memo = &mut FxHashMap::default();
        let steps = stepped_solo_run(explorer, memo, config, pid, must_decide, bound).unwrap();
        steps as usize <= bound
    }

    fn check_consensus<P: Protocol>(
        explorer: &Explorer<'_, P>,
        valid_inputs: &[Value],
        limits: Limits,
    ) -> Result<CheckStats, Violation> {
        check_k_set_agreement(explorer, 1, valid_inputs, limits)
    }

    /// Correct consensus via a consensus object.
    #[derive(Debug)]
    struct GoodConsensus {
        inputs: Vec<Value>,
    }

    impl Protocol for GoodConsensus {
        type LocalState = ();
        fn num_processes(&self) -> usize {
            self.inputs.len()
        }
        fn init(&self, _pid: Pid) {}
        fn pending_op(&self, pid: Pid, _s: &()) -> (ObjId, Op) {
            (ObjId(0), Op::Propose(self.inputs[pid.index()]))
        }
        fn on_response(&self, _pid: Pid, _s: &(), resp: Value) -> Step<()> {
            Step::Decide(resp)
        }
    }

    /// Broken "consensus": each process decides its own input.
    #[derive(Debug)]
    struct DecideOwn {
        inputs: Vec<Value>,
    }

    impl Protocol for DecideOwn {
        type LocalState = ();
        fn num_processes(&self) -> usize {
            self.inputs.len()
        }
        fn init(&self, _pid: Pid) {}
        fn pending_op(&self, _pid: Pid, _s: &()) -> (ObjId, Op) {
            (ObjId(0), Op::Read)
        }
        fn on_response(&self, pid: Pid, _s: &(), _r: Value) -> Step<()> {
            Step::Decide(self.inputs[pid.index()])
        }
    }

    /// Broken "consensus": decides a constant not among the inputs.
    #[derive(Debug)]
    struct DecideConstant;

    impl Protocol for DecideConstant {
        type LocalState = ();
        fn num_processes(&self) -> usize {
            2
        }
        fn init(&self, _pid: Pid) {}
        fn pending_op(&self, _pid: Pid, _s: &()) -> (ObjId, Op) {
            (ObjId(0), Op::Read)
        }
        fn on_response(&self, _pid: Pid, _s: &(), _r: Value) -> Step<()> {
            Step::Decide(int(99))
        }
    }

    /// A process that halts without deciding.
    #[derive(Debug)]
    struct HaltsUndecided;

    impl Protocol for HaltsUndecided {
        type LocalState = ();
        fn num_processes(&self) -> usize {
            1
        }
        fn init(&self, _pid: Pid) {}
        fn pending_op(&self, _pid: Pid, _s: &()) -> (ObjId, Op) {
            (ObjId(0), Op::Read)
        }
        fn on_response(&self, _pid: Pid, _s: &(), _r: Value) -> Step<()> {
            Step::Halt
        }
    }

    fn reg() -> Vec<AnyObject> {
        vec![AnyObject::register()]
    }

    #[test]
    fn good_consensus_passes() {
        let p = GoodConsensus {
            inputs: vec![int(0), int(1)],
        };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let stats = check_consensus(&ex, &[int(0), int(1)], Limits::default()).unwrap();
        assert!(stats.configs >= 4);
    }

    #[test]
    fn agreement_violation_is_found() {
        let p = DecideOwn {
            inputs: vec![int(0), int(1)],
        };
        let objects = reg();
        let ex = Explorer::new(&p, &objects);
        let err = check_consensus(&ex, &[int(0), int(1)], Limits::default()).unwrap_err();
        assert!(matches!(err, Violation::Agreement { .. }), "{err}");
    }

    #[test]
    fn validity_violation_is_found() {
        let p = DecideConstant;
        let objects = reg();
        let ex = Explorer::new(&p, &objects);
        let err = check_consensus(&ex, &[int(0), int(1)], Limits::default()).unwrap_err();
        assert!(
            matches!(
                err,
                Violation::Validity {
                    value: Value::Int(99),
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn undecided_terminal_is_found() {
        let p = HaltsUndecided;
        let objects = reg();
        let ex = Explorer::new(&p, &objects);
        let err = check_consensus(&ex, &[int(0)], Limits::default()).unwrap_err();
        assert!(matches!(err, Violation::UndecidedTerminal { .. }), "{err}");
    }

    #[test]
    fn k_set_agreement_tolerates_k_values() {
        // DecideOwn with 2 distinct inputs violates consensus but satisfies
        // 2-set agreement.
        let p = DecideOwn {
            inputs: vec![int(0), int(1)],
        };
        let objects = reg();
        let ex = Explorer::new(&p, &objects);
        assert!(check_k_set_agreement(&ex, 2, &[int(0), int(1)], Limits::default()).is_ok());
        assert!(check_k_set_agreement(&ex, 1, &[int(0), int(1)], Limits::default()).is_err());
    }

    #[test]
    fn truncated_graph_is_inconclusive() {
        let p = GoodConsensus {
            inputs: vec![int(0), int(1)],
        };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let err = check_consensus(&ex, &[int(0), int(1)], Limits::new(1)).unwrap_err();
        assert!(matches!(err, Violation::Truncated));
    }

    #[test]
    fn solo_termination_helpers() {
        let p = GoodConsensus {
            inputs: vec![int(0), int(1)],
        };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let init = ex.initial_config();
        assert!(solo_run_ok(&ex, &init, Pid(0), 5, false));
        assert!(solo_run_ok(&ex, &init, Pid(0), 5, true));

        let p = HaltsUndecided;
        let objects = reg();
        let ex = Explorer::new(&p, &objects);
        let init = ex.initial_config();
        assert!(solo_run_ok(&ex, &init, Pid(0), 5, false));
        assert!(
            !solo_run_ok(&ex, &init, Pid(0), 5, true),
            "halting is not deciding"
        );
    }

    #[test]
    fn solo_loop_is_detected() {
        #[derive(Debug)]
        struct Spin;
        impl Protocol for Spin {
            type LocalState = ();
            fn num_processes(&self) -> usize {
                1
            }
            fn init(&self, _pid: Pid) {}
            fn pending_op(&self, _pid: Pid, _s: &()) -> (ObjId, Op) {
                (ObjId(0), Op::Read)
            }
            fn on_response(&self, _pid: Pid, _s: &(), _r: Value) -> Step<()> {
                Step::Continue(())
            }
        }
        let p = Spin;
        let objects = reg();
        let ex = Explorer::new(&p, &objects);
        let init = ex.initial_config();
        assert!(!solo_run_ok(&ex, &init, Pid(0), 100, false));
    }

    /// Three `PROPOSE`s to a (3,2)-set agreement object, responses ignored,
    /// then a register read, then a decision: every solo run is 4 steps,
    /// and outcome branches re-converge once the object is full (it answers
    /// every existing output with the same state).
    #[derive(Debug)]
    struct ProposeThriceThenRead;

    impl Protocol for ProposeThriceThenRead {
        type LocalState = u8;
        fn num_processes(&self) -> usize {
            1
        }
        fn init(&self, _pid: Pid) -> u8 {
            0
        }
        fn pending_op(&self, _pid: Pid, s: &u8) -> (ObjId, Op) {
            match s {
                0..=2 => (ObjId(0), Op::Propose(int(i64::from(*s)))),
                _ => (ObjId(1), Op::Read),
            }
        }
        fn on_response(&self, _pid: Pid, s: &u8, _r: Value) -> Step<u8> {
            if *s < 3 {
                Step::Continue(s + 1)
            } else {
                Step::Decide(int(0))
            }
        }
    }

    #[test]
    fn reconverging_solo_branches_are_not_a_loop() {
        let p = ProposeThriceThenRead;
        let objects = vec![
            AnyObject::set_agreement(3, 2).unwrap(),
            AnyObject::register(),
        ];
        let ex = Explorer::new(&p, &objects);
        let init = ex.initial_config();
        for must_decide in [false, true] {
            assert!(solo_run_ok(&ex, &init, Pid(0), 10, must_decide));
            assert!(solo_run_ok(&ex, &init, Pid(0), 4, must_decide));
            assert!(!solo_run_ok(&ex, &init, Pid(0), 3, must_decide));
        }
        let graph = ex.exploration().run().unwrap();
        assert_eq!(graph.longest_solo_runs(Pid(0), true).next(), Some(Some(4)));
        assert!(
            graph.transitions > graph.len() - 1,
            "some branches re-converge: {} transitions over {} configurations",
            graph.transitions,
            graph.len()
        );
    }

    #[test]
    fn violation_display_forms() {
        let cases: Vec<Violation> = vec![
            Violation::Truncated,
            Violation::Agreement {
                config: 1,
                values: vec![int(0), int(1)],
            },
            Violation::Validity {
                config: 2,
                value: int(9),
            },
            Violation::UndecidedTerminal { config: 3 },
            Violation::SoloNonTermination {
                config: 4,
                pid: Pid(1),
            },
            Violation::Nontriviality { config: 5 },
            Violation::Runtime(RuntimeError::NoProcesses),
        ];
        for v in cases {
            assert!(!v.to_string().is_empty());
        }
    }
}
