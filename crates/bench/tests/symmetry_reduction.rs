//! Symmetry reduction soundness, end to end: for every small protocol
//! instance the reduced (orbit) exploration must reach the **same verdict**
//! as the raw one, and every witness extracted from a reduced graph must
//! de-canonicalize into a schedule that replays — and confirms — on the
//! raw system. The broken protocols here are intentionally wrong, so the
//! witness path (not just the Holds path) is exercised.

use lbsa_core::value::int;
use lbsa_core::{AnyObject, ObjId, Op, Pid, Value};
use lbsa_explorer::Explorer;
use lbsa_protocols::dac::{all_binary_inputs, DacFromPac};
use lbsa_runtime::process::{classes_by_input, Protocol, Step, Symmetry};

/// Consensus with a broken adopt rule (a loser decides its own input), made
/// symmetric: processes with equal inputs are interchangeable, and the
/// consensus object's state is pid-free.
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

impl Symmetry for BrokenAdoptConsensus {
    fn pid_classes(&self) -> Vec<u32> {
        classes_by_input(&self.inputs)
    }
}

/// A symmetric protocol that never terminates: every process proposes to a
/// 2-SA object forever. Wait-freedom is violated, and the witness is a
/// pumpable cycle that must survive de-canonicalization.
#[derive(Debug)]
struct SymmetricSpinners {
    n: usize,
}

impl Protocol for SymmetricSpinners {
    type LocalState = ();
    fn num_processes(&self) -> usize {
        self.n
    }
    fn init(&self, _pid: Pid) {}
    fn pending_op(&self, _pid: Pid, _s: &()) -> (ObjId, Op) {
        (ObjId(0), Op::Propose(int(1)))
    }
    fn on_response(&self, _pid: Pid, _s: &(), _resp: Value) -> Step<()> {
        Step::Continue(())
    }
}

impl Symmetry for SymmetricSpinners {
    fn pid_classes(&self) -> Vec<u32> {
        vec![0; self.n]
    }
}

/// Every n-DAC instance with n ≤ 3, every binary input vector, every choice
/// of distinguished process: the reduced verdict agrees with the raw one,
/// reduced never explores more, and any reduced witness confirms on the
/// raw system.
#[test]
fn dac_reduced_verdicts_agree_with_raw_on_all_small_instances() {
    for n in [2usize, 3] {
        for inputs in all_binary_inputs(n) {
            for d in 0..n {
                let p = DacFromPac::new(inputs.clone(), Pid(d), ObjId(0)).unwrap();
                let objects = vec![AnyObject::pac(n).unwrap()];
                let ex = Explorer::new(&p, &objects);
                let raw = ex.exploration().check_dac(&p.instance(), 10);
                let reduced = ex.exploration().symmetric().check_dac(&p.instance(), 10);
                assert_eq!(
                    raw.outcome.tag(),
                    reduced.outcome.tag(),
                    "n={n} inputs={inputs:?} distinguished={d}: verdicts diverge"
                );
                assert!(
                    reduced.stats.configs <= raw.stats.configs,
                    "n={n} inputs={inputs:?} distinguished={d}: reduction grew the graph"
                );
                if let Some(w) = &reduced.witness {
                    w.confirm(&ex).unwrap_or_else(|e| {
                        panic!(
                            "n={n} inputs={inputs:?} distinguished={d}: \
                             de-canonicalized witness fails on the raw system: {e}"
                        )
                    });
                }
            }
        }
    }
}

/// Same sweep for the (intentionally broken) symmetric consensus protocol:
/// most input vectors yield an Agreement violation, so this drives the
/// state-witness de-canonicalization path for every orbit shape with n ≤ 3.
#[test]
fn broken_consensus_reduced_witnesses_confirm_on_the_raw_system() {
    let mut violations = 0usize;
    for n in [2usize, 3] {
        for inputs in all_binary_inputs(n) {
            let valid = inputs.clone();
            let p = BrokenAdoptConsensus { inputs };
            let objects = vec![AnyObject::consensus(n).unwrap()];
            let ex = Explorer::new(&p, &objects);
            let raw = ex.exploration().check_consensus(&valid);
            let reduced = ex.exploration().symmetric().check_consensus(&valid);
            assert_eq!(
                raw.outcome.tag(),
                reduced.outcome.tag(),
                "n={n} inputs={valid:?}: verdicts diverge"
            );
            if let Some(w) = &reduced.witness {
                violations += 1;
                w.confirm(&ex)
                    .unwrap_or_else(|e| panic!("n={n} inputs={valid:?}: witness fails: {e}"));
            }
        }
    }
    assert!(
        violations > 0,
        "the broken protocol never violated — dead test"
    );
}

/// Cycle pumping: the reduced wait-freedom witness on an all-symmetric
/// spinner is a *real* cycle after de-canonicalization, and it confirms on
/// the raw system even though the quotient cycle only closed up to orbit.
#[test]
fn reduced_nontermination_witnesses_pump_to_real_cycles() {
    for n in [2usize, 3] {
        let p = SymmetricSpinners { n };
        let objects = vec![AnyObject::strong_sa()];
        let ex = Explorer::new(&p, &objects);
        let raw = ex.exploration().check_wait_free();
        let reduced = ex.exploration().symmetric().check_wait_free();
        assert_eq!(raw.outcome.tag(), reduced.outcome.tag(), "n={n}");
        let w = reduced.witness.expect("spinners violate wait-freedom");
        w.confirm(&ex)
            .unwrap_or_else(|e| panic!("n={n}: pumped cycle fails on the raw system: {e}"));
    }
}

/// Reduction composes with the work-stealing hand-off: under the natural
/// cost gate and with the pool recruited at the root, the symmetric
/// exploration is byte-identical at every worker thread count, DAC n = 5
/// and 6 included.
#[test]
fn reduced_graphs_are_thread_count_independent() {
    for n in [4usize, 5, 6] {
        let mut inputs = vec![int(0); n];
        inputs[0] = int(1);
        let p = DacFromPac::new(inputs, Pid(0), ObjId(0)).unwrap();
        let objects = vec![AnyObject::pac(n).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let sequential = ex.exploration().threads(1).symmetric().run().unwrap();
        assert!(sequential.complete && sequential.stats.reduced);
        for threads in [1usize, 2, 4, 8] {
            for forced in [false, true] {
                let mut e = ex.exploration().threads(threads).symmetric();
                if forced {
                    e = e.force_parallel();
                }
                let parallel = e.run().unwrap();
                assert!(
                    sequential.same_structure(&parallel),
                    "n={n}: reduced graph differs at {threads} threads (forced {forced})"
                );
                assert_eq!(
                    sequential.structural_digest(),
                    parallel.structural_digest(),
                    "n={n}: digest differs at {threads} threads (forced {forced})"
                );
                // Forced runs always hand off; whether the natural gate
                // does depends on how costly the build makes each orbit.
                if forced && threads > 1 {
                    assert!(parallel.stats.work_stealing(), "n={n}: forced hand-off");
                }
            }
        }
    }
}
