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
//! Section 4, including the solo-run Termination clauses (a) and (b), which
//! are checked by re-exploring `q`-solo extensions from **every** reachable
//! configuration.
//!
//! The checkers also run unchanged over a **symmetry-reduced** graph (built
//! with [`crate::explore::Exploration::symmetric`]): every predicate here is
//! orbit-invariant. Agreement, validity and undecided-terminal inspect only
//! the multiset of decisions and statuses, which pid permutations preserve;
//! the pid-specific n-DAC predicates (solo runs of `q`, Nontriviality of the
//! distinguished process) are invariant because the
//! [`lbsa_runtime::process::Symmetry`] contract makes distinguished roles
//! singleton classes — fixed by every group element — and solo extensions of
//! a canonical representative cover those of the whole orbit by
//! equivariance. Violations found on the quotient are translated back to
//! real executions by the verdict layer (see [`crate::verdict`]).

use crate::adversary::{find_nontermination, NonTerminationWitness};
use crate::config::Configuration;
use crate::explore::{ExplorationGraph, Explorer};
use lbsa_core::{Pid, Value};
use lbsa_runtime::error::RuntimeError;
use lbsa_runtime::process::{ProcStatus, Protocol};
use std::collections::HashSet;
use std::fmt;

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
    for (idx, config) in graph.configs.iter().enumerate() {
        let decided = config.distinct_decisions();
        if decided.len() > k {
            return Err(Violation::Agreement {
                config: idx,
                values: decided,
            });
        }
        for v in &decided {
            if !valid_inputs.contains(v) {
                return Err(Violation::Validity {
                    config: idx,
                    value: *v,
                });
            }
        }
    }
    wait_free(graph)
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

/// Runs `pid` solo from `config`, following every object-outcome branch.
///
/// Returns `Ok(true)` if on **every** branch `pid` stops running (decides,
/// aborts, or halts) within `bound` of its own steps and without revisiting
/// a configuration (a revisit is a solo loop — non-termination).
///
/// # Errors
///
/// Propagates runtime errors.
pub(crate) fn solo_terminates<P: Protocol>(
    explorer: &Explorer<'_, P>,
    config: &Configuration<P::LocalState>,
    pid: Pid,
    bound: usize,
) -> Result<bool, RuntimeError> {
    let mut visited: HashSet<Configuration<P::LocalState>> = HashSet::new();
    let mut stack: Vec<(Configuration<P::LocalState>, usize)> = vec![(config.clone(), 0)];
    while let Some((cfg, depth)) = stack.pop() {
        if !matches!(cfg.procs.get(pid.index()), Some(ProcStatus::Running(_))) {
            continue; // this branch terminated
        }
        if depth >= bound {
            return Ok(false);
        }
        if !visited.insert(cfg.clone()) {
            return Ok(false); // solo loop
        }
        for succ in explorer.successors_of(&cfg, pid)? {
            stack.push((succ, depth + 1));
        }
    }
    Ok(true)
}

/// Like [`solo_terminates`], but additionally requires that on every branch
/// the process **decides** (aborting or halting does not count).
///
/// # Errors
///
/// Propagates runtime errors.
pub(crate) fn solo_decides<P: Protocol>(
    explorer: &Explorer<'_, P>,
    config: &Configuration<P::LocalState>,
    pid: Pid,
    bound: usize,
) -> Result<bool, RuntimeError> {
    let mut visited: HashSet<Configuration<P::LocalState>> = HashSet::new();
    let mut stack: Vec<(Configuration<P::LocalState>, usize)> = vec![(config.clone(), 0)];
    while let Some((cfg, depth)) = stack.pop() {
        match cfg.procs.get(pid.index()) {
            Some(ProcStatus::Running(_)) => {}
            Some(ProcStatus::Decided(_)) => continue,
            _ => return Ok(false), // aborted/halted/crashed: not a decision
        }
        if depth >= bound {
            return Ok(false);
        }
        if !visited.insert(cfg.clone()) {
            return Ok(false);
        }
        for succ in explorer.successors_of(&cfg, pid)? {
            stack.push((succ, depth + 1));
        }
    }
    Ok(true)
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
/// Returns the first [`Violation`] found.
pub(crate) fn dac<P: Protocol>(
    explorer: &Explorer<'_, P>,
    graph: &ExplorationGraph<P::LocalState>,
    instance: &DacInstance,
    solo_bound: usize,
) -> Result<CheckStats, Violation> {
    if !graph.complete {
        return Err(Violation::Truncated);
    }
    let p = instance.distinguished;
    let n = explorer.protocol().num_processes();

    // Agreement + Validity, per configuration.
    for (idx, config) in graph.configs.iter().enumerate() {
        let decided = config.distinct_decisions();
        if decided.len() > 1 {
            return Err(Violation::Agreement {
                config: idx,
                values: decided,
            });
        }
        for v in &decided {
            let supported =
                (0..n).any(|q| instance.inputs.get(q) == Some(v) && !config.has_aborted(Pid(q)));
            if !supported {
                return Err(Violation::Validity {
                    config: idx,
                    value: *v,
                });
            }
        }
    }

    // Termination (a) and (b): solo runs from every reachable configuration.
    for (idx, config) in graph.configs.iter().enumerate() {
        if matches!(config.procs.get(p.index()), Some(ProcStatus::Running(_)))
            && !solo_terminates(explorer, config, p, solo_bound)?
        {
            return Err(Violation::SoloNonTermination {
                config: idx,
                pid: p,
            });
        }
        for q in 0..n {
            let q = Pid(q);
            if q == p {
                continue;
            }
            if matches!(config.procs.get(q.index()), Some(ProcStatus::Running(_)))
                && !solo_decides(explorer, config, q, solo_bound)?
            {
                return Err(Violation::SoloNonTermination {
                    config: idx,
                    pid: q,
                });
            }
        }
    }

    // Nontriviality: BFS over (configuration, has-any-other-process-stepped).
    {
        let mut seen: HashSet<(usize, bool)> = HashSet::new();
        let mut queue: Vec<(usize, bool)> = vec![(0, false)];
        seen.insert((0, false));
        while let Some((idx, others_stepped)) = queue.pop() {
            if graph.configs[idx].has_aborted(p) && !others_stepped {
                return Err(Violation::Nontriviality { config: idx });
            }
            for e in &graph.edges[idx] {
                let next_flag = others_stepped || e.pid != p;
                if seen.insert((e.target, next_flag)) {
                    queue.push((e.target, next_flag));
                }
            }
        }
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
        assert!(solo_terminates(&ex, &init, Pid(0), 5).unwrap());
        assert!(solo_decides(&ex, &init, Pid(0), 5).unwrap());

        let p = HaltsUndecided;
        let objects = reg();
        let ex = Explorer::new(&p, &objects);
        let init = ex.initial_config();
        assert!(solo_terminates(&ex, &init, Pid(0), 5).unwrap());
        assert!(
            !solo_decides(&ex, &init, Pid(0), 5).unwrap(),
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
        assert!(!solo_terminates(&ex, &init, Pid(0), 100).unwrap());
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
