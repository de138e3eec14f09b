//! n-DAC Termination (a)/(b), two ways: the longest solo runs the checker
//! reads off a raw graph's edges must agree, for every (configuration,
//! running process), with the concrete predicate that steps the solo runs
//! through the explorer (reached here through [`Witness::confirm`] of a
//! solo-run witness). The protocols are random automata over
//! nondeterministic objects, whose solo runs loop, re-converge and stop
//! without deciding, and the paper's own DAC graphs (T2, T3). Quotient
//! graphs, which step solo runs concretely, must reach the raw verdict.

use lbsa_bench::mixed_binary_inputs;
use lbsa_core::ids::Label;
use lbsa_core::value::int;
use lbsa_core::{AnyObject, ObjId, Op, Pid, Value};
use lbsa_explorer::verdict::{ScheduleStep, WitnessKind};
use lbsa_explorer::{CheckError, ExplorationGraph, Explorer, Outcome, Violation, Witness};
use lbsa_protocols::candidates::DacWaitForWinner;
use lbsa_protocols::dac::{all_binary_inputs, DacFromPac};
use lbsa_runtime::process::{Protocol, Step};
use lbsa_runtime::trace::Trace;
use lbsa_support::check::run_cases;
use lbsa_support::rng::SmallRng;

/// Where a random automaton goes on a response.
#[derive(Clone, Copy, Debug)]
enum Move {
    Goto(usize),
    Decide(i64),
    Halt,
    Abort,
}

/// One automaton state: the operation it applies, and its move per
/// response bucket (even integer, odd integer, anything else).
type State = ((ObjId, Op), [Move; 3]);

/// A random finite automaton per process, started in state 0.
#[derive(Debug)]
struct RandomAutomata {
    procs: Vec<Vec<State>>,
}

impl Protocol for RandomAutomata {
    type LocalState = usize;
    fn num_processes(&self) -> usize {
        self.procs.len()
    }
    fn init(&self, _pid: Pid) -> usize {
        0
    }
    fn pending_op(&self, pid: Pid, s: &usize) -> (ObjId, Op) {
        self.procs[pid.index()][*s].0
    }
    fn on_response(&self, pid: Pid, s: &usize, resp: Value) -> Step<usize> {
        let bucket = match resp {
            Value::Int(i) => usize::try_from(i.rem_euclid(2)).expect("0 or 1"),
            _ => 2,
        };
        match self.procs[pid.index()][*s].1[bucket] {
            Move::Goto(next) => Step::Continue(next),
            Move::Decide(v) => Step::Decide(int(v)),
            Move::Halt => Step::Halt,
            Move::Abort => Step::Abort,
        }
    }
}

/// Nondeterministic objects (a (3,2)-set agreement, a 2-PAC) beside a
/// register.
fn universe() -> Vec<AnyObject> {
    vec![
        AnyObject::set_agreement(3, 2).unwrap(),
        AnyObject::pac(2).unwrap(),
        AnyObject::register(),
    ]
}

fn random_op(rng: &mut SmallRng) -> (ObjId, Op) {
    let obj = rng.random_range(0..3);
    let op = match obj {
        0 => Op::Propose(int(rng.i64_range(1..4))),
        1 => {
            let label = Label::new(rng.random_range(0..2) + 1).unwrap();
            if rng.ratio(1, 2) {
                Op::ProposePac(int(rng.i64_range(1..4)), label)
            } else {
                Op::DecidePac(label)
            }
        }
        _ if rng.ratio(1, 2) => Op::Read,
        _ => Op::Write(int(rng.i64_range(1..4))),
    };
    (ObjId(obj), op)
}

fn random_automata(rng: &mut SmallRng) -> RandomAutomata {
    let procs = (0..rng.random_range(2..4))
        .map(|_| {
            let states = rng.random_range(1..4);
            (0..states)
                .map(|_| {
                    let op = random_op(rng);
                    let moves = [(); 3].map(|()| match rng.random_range(0..8) {
                        0..=3 => Move::Goto(rng.random_range(0..states)),
                        4 | 5 => Move::Decide(rng.i64_range(1..4)),
                        6 => Move::Halt,
                        _ => Move::Abort,
                    });
                    (op, moves)
                })
                .collect()
        })
        .collect();
    RandomAutomata { procs }
}

/// The BFS-tree schedule from the initial configuration to every node.
fn schedules<L>(graph: &ExplorationGraph<L>) -> Vec<Vec<ScheduleStep>> {
    let mut to: Vec<Option<Vec<ScheduleStep>>> = vec![None; graph.len()];
    to[0] = Some(Vec::new());
    let mut queue = std::collections::VecDeque::from([0usize]);
    while let Some(v) = queue.pop_front() {
        for e in &graph.edges[v] {
            if to[e.target].is_none() {
                let mut s = to[v].clone().expect("queued nodes are reached");
                s.push(ScheduleStep::from(*e));
                to[e.target] = Some(s);
                queue.push_back(e.target);
            }
        }
    }
    to.into_iter()
        .map(|s| s.expect("every node is reachable"))
        .collect()
}

/// The concrete predicate: whether `pid` run solo after `schedule` stops
/// (decides, when `must_decide`) within `bound` of its own steps. A
/// solo-run witness confirms exactly when it does not.
fn concrete_ok<P: Protocol>(
    ex: &Explorer<'_, P>,
    schedule: &[ScheduleStep],
    pid: Pid,
    bound: usize,
    must_decide: bool,
) -> bool {
    let witness = Witness {
        schedule: schedule.to_vec(),
        cycle: Vec::new(),
        kind: WitnessKind::SoloNonTermination {
            pid,
            bound,
            must_decide,
        },
        trace: Trace::new(),
        minimized: false,
    };
    match witness.confirm(ex) {
        Ok(()) => false,
        Err(CheckError::WitnessDiverged { .. }) => true,
        Err(e) => panic!("solo predicate failed: {e}"),
    }
}

/// Asserts, for every configuration in which `pid` runs, that the longest
/// solo run read off the edges is the one the concrete predicate pins:
/// within bound `h` and not within `h - 1` for a finite `h`, never within
/// bound for an unbounded one. Returns the pairs compared.
fn edges_agree_with_concrete<P: Protocol>(
    ex: &Explorer<'_, P>,
    graph: &ExplorationGraph<P::LocalState>,
    pid: Pid,
    must_decide: bool,
    what: &str,
) -> usize {
    let longest: Vec<_> = graph.longest_solo_runs(pid, must_decide).collect();
    let paths = schedules(graph);
    let mut pairs = 0;
    for (idx, config) in graph.configs.iter().enumerate() {
        if !config.procs[pid.index()].is_running() {
            continue;
        }
        pairs += 1;
        let schedule = &paths[idx];
        let at = |bound| concrete_ok(ex, schedule, pid, bound, must_decide);
        match longest[idx] {
            Some(h) => {
                assert!(h >= 1, "{what}: a running {pid} takes a step");
                assert!(at(h), "{what}: config {idx}, {pid}: not within {h}");
                assert!(!at(h - 1), "{what}: config {idx}, {pid}: within {}", h - 1);
            }
            None => assert!(
                !at(graph.len() + 1),
                "{what}: config {idx}, {pid}: unbounded on the edges only"
            ),
        }
    }
    pairs
}

#[test]
fn longest_solo_runs_match_the_concrete_predicate_on_random_automata() {
    let mut pairs = 0;
    let mut unbounded = 0;
    run_cases("longest_solo_runs_random_automata", 40, |rng| {
        let protocol = random_automata(rng);
        let objects = universe();
        let ex = Explorer::new(&protocol, &objects);
        let graph = ex.exploration().max_configs(20_000).run().unwrap();
        if !graph.complete {
            return;
        }
        for q in 0..protocol.num_processes() {
            for must_decide in [false, true] {
                pairs += edges_agree_with_concrete(&ex, &graph, Pid(q), must_decide, "random");
                unbounded += graph
                    .longest_solo_runs(Pid(q), must_decide)
                    .filter(Option::is_none)
                    .count();
            }
        }
    });
    assert!(pairs > 100, "too few (config, pid) pairs compared: {pairs}");
    assert!(unbounded > 0, "no solo loop or failing stop was exercised");
}

#[test]
fn longest_solo_runs_match_the_concrete_predicate_on_t2_graphs() {
    for n in 2..=4 {
        for inputs in all_binary_inputs(n) {
            let protocol = DacFromPac::new(inputs, Pid(0), ObjId(0)).unwrap();
            let objects = vec![AnyObject::pac(n).unwrap()];
            let ex = Explorer::new(&protocol, &objects);
            let graph = ex.exploration().run().unwrap();
            for q in 0..n {
                edges_agree_with_concrete(&ex, &graph, Pid(q), q != 0, "T2");
            }
        }
    }
}

#[test]
fn longest_solo_runs_match_the_concrete_predicate_on_t3_dac_graphs() {
    let inputs = mixed_binary_inputs(3);
    let alg2 = DacFromPac::new(inputs.clone(), Pid(0), ObjId(0)).unwrap();
    let pac = vec![AnyObject::pac(3).unwrap()];
    let ex = Explorer::new(&alg2, &pac);
    let graph = ex.exploration().run().unwrap();
    for q in 0..3 {
        edges_agree_with_concrete(&ex, &graph, Pid(q), q != 0, "T3 Algorithm 2");
    }

    let wfw = DacWaitForWinner::new(inputs, Pid(0));
    let objects = vec![AnyObject::consensus(2).unwrap(), AnyObject::register()];
    let ex = Explorer::new(&wfw, &objects);
    let graph = ex.exploration().run().unwrap();
    let unbounded: usize = (0..3)
        .map(|q| {
            edges_agree_with_concrete(&ex, &graph, Pid(q), q != 0, "T3 wait-for-winner");
            graph
                .longest_solo_runs(Pid(q), q != 0)
                .filter(Option::is_none)
                .count()
        })
        .sum();
    assert!(
        unbounded > 0,
        "the refuted candidate has unbounded solo runs"
    );
}

/// Quotient graphs step solo runs concretely; raw graphs read them off the
/// edges. At bounds too small for Algorithm 2's solo runs and at the T2
/// bound, both must reach the same verdict, and every solo-run witness must
/// confirm on the raw system.
#[test]
fn reduced_and_raw_dac_verdicts_agree_on_t2() {
    for n in [3usize, 4] {
        for inputs in all_binary_inputs(n) {
            let protocol = DacFromPac::new(inputs.clone(), Pid(0), ObjId(0)).unwrap();
            let objects = vec![AnyObject::pac(n).unwrap()];
            let ex = Explorer::new(&protocol, &objects);
            for bound in [1, 2, 3, 6 * n] {
                let raw = ex.exploration().check_dac(&protocol.instance(), bound);
                let reduced = ex
                    .exploration()
                    .symmetric()
                    .check_dac(&protocol.instance(), bound);
                let what = format!("n={n} inputs={inputs:?} bound={bound}");
                assert_eq!(raw.outcome.tag(), reduced.outcome.tag(), "{what}");
                match (&raw.outcome, &reduced.outcome) {
                    (Outcome::Holds, Outcome::Holds) => {}
                    (
                        Outcome::Violated(Violation::SoloNonTermination { .. }),
                        Outcome::Violated(Violation::SoloNonTermination { .. }),
                    ) => {
                        for v in [&raw, &reduced] {
                            let w = v.witness.as_ref().expect("witness");
                            w.confirm(&ex).unwrap_or_else(|e| panic!("{what}: {e}"));
                        }
                    }
                    other => panic!("{what}: verdicts diverge: {other:?}"),
                }
            }
        }
    }
}
