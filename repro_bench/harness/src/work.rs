//! The three in-process workloads: their inputs, their instances and one op
//! each, driven only through the `Exploration` builder and its terminals.

use crate::out::Line;
use lbsa_core::value::int;
use lbsa_core::{AnyObject, ObjId, Pid, Value};
use lbsa_explorer::{Configuration, ExplorationGraph, Explorer, Outcome, SampleConfig};
use lbsa_protocols::dac::DacFromPac;
use lbsa_protocols::set_agreement_protocols::KSetViaStrongSa;
use lbsa_protocols::vote_propagation::VotePropagation;
use lbsa_runtime::{ProcStatus, Protocol};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Processes in the k-set race (236,206 configurations at n = 9).
pub const KSET_N: usize = 9;
/// Processes in the Algorithm 2 instance (one distinguished, seven alike).
pub const DAC_N: usize = 8;
/// Solo-run bound of the DAC termination checks (the T2 experiment's `6n`).
pub const DAC_SOLO_BOUND: usize = 6 * DAC_N;
/// Nodes of every vote-propagation cell (the F8 sweep's size).
pub const VOTE_N: usize = 10;
/// Sampled runs per vote-propagation cell.
pub const VOTE_RUNS: u64 = 1000;
/// Distinct seeded topologies/seed ranges the vote workload draws from; the
/// expected outputs hold every one of them.
pub const VOTE_VARIANTS: u64 = 8;
/// Round budget of every vote-propagation node (the F8 default).
const VOTE_MAX_ROUNDS: u32 = 8;

/// SplitMix64: the benchmark's own input generator, so the inputs a seed
/// yields never depend on the program under test.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x5EED_BE4C_0000_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// What one op produced, in the shape the expected outputs are kept in.
pub struct Check {
    pub key: String,
    pub verdict: String,
    pub fields: Vec<(&'static str, u64)>,
}

impl Check {
    pub fn emit(&self) {
        let mut line = Line::new()
            .str("check", &self.key)
            .str("verdict", &self.verdict);
        for (name, value) in &self.fields {
            line = line.int(name, *value);
        }
        line.emit();
    }
}

/// One measured op: its wall time, its work units and its result.
pub struct OpResult {
    pub elapsed: Duration,
    pub work: u64,
    pub check: Check,
}

// ---------------------------------------------------------------- k-set

/// A permutation of the distinct values `0..n` over the processes.
pub fn kset_inputs(rng: &mut SplitMix) -> Vec<Value> {
    let mut values: Vec<i64> = (0..KSET_N as i64).collect();
    for i in (1..values.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        values.swap(i, j);
    }
    values.into_iter().map(Value::Int).collect()
}

pub fn kset_protocol(inputs: &[Value]) -> (KSetViaStrongSa, Vec<AnyObject>) {
    (
        KSetViaStrongSa::new(inputs.to_vec(), ObjId(0)),
        vec![AnyObject::strong_sa()],
    )
}

/// `check_k_set_agreement(2, ..)` through the builder; `threads: 0` is
/// the builder's default (auto) thread count.
pub fn kset_op(inputs: &[Value], threads: usize) -> OpResult {
    let (protocol, objects) = kset_protocol(inputs);
    let explorer = Explorer::new(&protocol, &objects);
    let start = Instant::now();
    let verdict = explorer
        .exploration()
        .threads(threads)
        .check_k_set_agreement(2, inputs);
    let elapsed = start.elapsed();
    OpResult {
        elapsed,
        work: verdict.stats.configs as u64,
        check: Check {
            key: "kset".into(),
            verdict: verdict.outcome.tag().into(),
            fields: vec![
                ("configs", verdict.stats.configs as u64),
                ("transitions", verdict.stats.transitions as u64),
            ],
        },
    }
}

// ------------------------------------------------------------------ DAC

/// The DAC variant a draw selects: which pid is distinguished and which
/// binary input it holds (every other process holds the other bit).
pub fn dac_variant(rng: &mut SplitMix) -> (usize, i64) {
    (rng.below(DAC_N as u64) as usize, rng.below(2) as i64)
}

pub fn dac_key(distinguished: usize, bit: i64) -> String {
    format!("dac/d{distinguished}/b{bit}")
}

pub fn dac_protocol(distinguished: usize, bit: i64) -> (DacFromPac, Vec<AnyObject>) {
    let mut inputs = vec![Value::Int(1 - bit); DAC_N];
    inputs[distinguished] = Value::Int(bit);
    let protocol =
        DacFromPac::new(inputs, Pid(distinguished), ObjId(0)).expect("n >= 2, pid in range");
    (protocol, vec![AnyObject::pac(DAC_N).expect("valid arity")])
}

/// A `.symmetric()` exploration of Algorithm 2 and the n-DAC verdict over
/// the orbit graph; `threads: 0` is the default (auto) thread count.
pub fn dac_op(distinguished: usize, bit: i64, threads: usize) -> OpResult {
    let (protocol, objects) = dac_protocol(distinguished, bit);
    let explorer = Explorer::new(&protocol, &objects);
    let start = Instant::now();
    let check = match explorer.exploration().symmetric().threads(threads).run() {
        Ok(graph) => {
            let verdict = dac_verdict(&explorer, &graph, protocol.inputs(), Pid(distinguished));
            dac_check(distinguished, bit, verdict, &graph)
        }
        Err(_) => Check {
            key: dac_key(distinguished, bit),
            verdict: "error".into(),
            fields: Vec::new(),
        },
    };
    let elapsed = start.elapsed();
    let work = check.fields.first().map_or(0, |&(_, configs)| configs);
    OpResult {
        elapsed,
        work,
        check,
    }
}

/// The recorded shape of a DAC result: verdict, orbit and transition
/// counts, and the graph's structural digest.
pub fn dac_check<L: std::hash::Hash>(
    distinguished: usize,
    bit: i64,
    verdict: &str,
    graph: &ExplorationGraph<L>,
) -> Check {
    Check {
        key: dac_key(distinguished, bit),
        verdict: verdict.into(),
        fields: vec![
            ("configs", graph.configs.len() as u64),
            ("transitions", graph.transitions as u64),
            ("digest", graph.structural_digest()),
        ],
    }
}

/// The four n-DAC properties of Section 4 over a (possibly orbit-reduced)
/// graph: Agreement, Validity, Termination (a)/(b) by bounded solo runs,
/// and Nontriviality. Every predicate is invariant under the protocol's
/// pid symmetry, which only swaps processes holding the same input.
pub fn dac_verdict<P: Protocol>(
    explorer: &Explorer<'_, P>,
    graph: &ExplorationGraph<P::LocalState>,
    inputs: &[Value],
    p: Pid,
) -> &'static str {
    if !graph.complete {
        return "truncated";
    }
    for config in &graph.configs {
        let decided = config.distinct_decisions();
        if decided.len() > 1 {
            return "agreement";
        }
        let supported =
            |v: &Value| (0..inputs.len()).any(|q| inputs[q] == *v && !config.has_aborted(Pid(q)));
        if !decided.iter().all(supported) {
            return "validity";
        }
    }
    for config in &graph.configs {
        for q in 0..inputs.len() {
            if !matches!(config.procs[q], ProcStatus::Running(_)) {
                continue;
            }
            match solo_run(explorer, config, Pid(q), DAC_SOLO_BOUND, Pid(q) == p) {
                Ok(true) => {}
                Ok(false) => return "termination",
                Err(()) => return "error",
            }
        }
    }
    // Nontriviality: p never aborts before some other process has stepped.
    let mut seen: HashSet<(usize, bool)> = HashSet::from([(0, false)]);
    let mut stack = vec![(0usize, false)];
    while let Some((idx, others_stepped)) = stack.pop() {
        if graph.configs[idx].has_aborted(p) && !others_stepped {
            return "nontriviality";
        }
        for edge in &graph.edges[idx] {
            let next = (edge.target, others_stepped || edge.pid != p);
            if seen.insert(next) {
                stack.push(next);
            }
        }
    }
    "holds"
}

/// Runs `pid` alone from `config` along every object-outcome branch: true
/// when every branch stops within `bound` own steps without looping, and
/// (unless `may_abort`) stops by deciding.
fn solo_run<P: Protocol>(
    explorer: &Explorer<'_, P>,
    config: &Configuration<P::LocalState>,
    pid: Pid,
    bound: usize,
    may_abort: bool,
) -> Result<bool, ()> {
    let mut visited = HashSet::new();
    let mut stack = vec![(config.clone(), 0usize)];
    while let Some((cfg, depth)) = stack.pop() {
        match &cfg.procs[pid.index()] {
            ProcStatus::Running(_) => {}
            ProcStatus::Decided(_) => continue,
            _ if may_abort => continue,
            _ => return Ok(false),
        }
        if depth >= bound || !visited.insert(cfg.clone()) {
            return Ok(false);
        }
        for next in explorer.successors_of(&cfg, pid).map_err(|_| ())? {
            stack.push((next, depth + 1));
        }
    }
    Ok(true)
}

// ----------------------------------------------------------------- vote

/// One cell of the F8 grid: connectivity × starters × bidirectional-edge
/// probability `num/den`.
#[derive(Clone, Copy)]
pub struct VoteCell {
    pub connectivity: usize,
    pub starters: usize,
    pub bidi: (u64, u64),
}

pub fn vote_cells() -> Vec<VoteCell> {
    let mut cells = Vec::new();
    for connectivity in [1usize, 2, 3] {
        for starters in [1usize, (VOTE_N / 3).max(2)] {
            for bidi in [(0u64, 2u64), (1, 2), (2, 2)] {
                cells.push(VoteCell {
                    connectivity,
                    starters,
                    bidi,
                });
            }
        }
    }
    cells
}

pub fn vote_key(variant: u64, cell: usize) -> String {
    format!("vote/v{variant}/c{cell}")
}

/// The topology seed and first run seed of `cell` under `variant`.
fn vote_seeds(variant: u64, cell: usize) -> (u64, u64) {
    let tag = variant * 1000 + cell as u64 + 1;
    (0xF8_0000 + tag, tag * 1_000_000)
}

fn vote_protocol(variant: u64, cell: usize) -> VotePropagation {
    let c = vote_cells()[cell];
    let (topology, _) = vote_seeds(variant, cell);
    VotePropagation::random(
        VOTE_N,
        c.connectivity,
        c.starters,
        c.bidi.0,
        c.bidi.1,
        topology,
    )
    .expect("grid parameters are valid")
    .with_max_rounds(VOTE_MAX_ROUNDS)
}

/// One sampled `check_consensus` on one cell; `threads: 0` is auto.
pub fn vote_op(variant: u64, cell: usize, threads: usize) -> OpResult {
    let protocol = vote_protocol(variant, cell);
    let mailboxes = protocol.mailboxes();
    let (_, seed0) = vote_seeds(variant, cell);
    let explorer = Explorer::new(&protocol, &mailboxes);
    let start = Instant::now();
    let verdict = explorer
        .exploration()
        .sample(SampleConfig {
            runs: VOTE_RUNS,
            seed0,
            threads,
            ..SampleConfig::default()
        })
        .check_consensus(&[int(1)]);
    let elapsed = start.elapsed();
    let (runs, quiescent) = match verdict.outcome {
        Outcome::HoldsSampled {
            runs, quiescent, ..
        } => (runs, quiescent),
        _ => (0, 0),
    };
    OpResult {
        elapsed,
        work: runs,
        check: Check {
            key: vote_key(variant, cell),
            verdict: verdict.outcome.tag().into(),
            fields: vec![
                ("runs", runs),
                ("quiescent", quiescent),
                ("steps", verdict.stats.transitions as u64),
            ],
        },
    }
}
