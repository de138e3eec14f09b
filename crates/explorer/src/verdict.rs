//! Typed verdicts with replayable, minimized counterexample witnesses.
//!
//! Every property check is a terminal of the [`Exploration`] builder, one
//! per property: [`Exploration::check_consensus`],
//! [`Exploration::check_k_set_agreement`], [`Exploration::check_dac`] and
//! [`Exploration::check_wait_free`]. Each returns a [`Verdict`] whose
//! negative answers carry a [`Witness`] — a schedule (pid + chosen object
//! outcome per step, the same labelling as [`crate::explore::Edge`]) that
//!
//! 1. **replays deterministically**: [`Witness::replay`] re-executes it step
//!    by step through [`crate::explore::Explorer::step`], rebuilding the
//!    object-level [`lbsa_runtime::trace::Trace`];
//! 2. **is delta-minimized**: the schedule is cut to the shortest failing
//!    prefix (for state-predicate violations) or re-routed through the
//!    BFS-shortest prefix (for cycle witnesses), and minimization never
//!    lengthens it;
//! 3. **confirms the violation**: [`Witness::confirm`] replays and then
//!    re-evaluates the violated property on the replayed configuration,
//!    failing with [`CheckError::WitnessDiverged`] if the schedule no longer
//!    demonstrates the violation.
//!
//! Verdicts and witnesses serialize to the `reports/*.json` schema via
//! [`Verdict::to_json`] (see `lbsa_bench::harness`).
//!
//! # Symmetry-reduced checking
//!
//! After [`Exploration::symmetric`] (for protocols implementing
//! [`lbsa_runtime::process::Symmetry`]), a terminal explores the
//! **quotient** graph (one canonical representative per orbit, see
//! [`crate::symmetry`]) and runs the same checks on it — sound because
//! every checked predicate is orbit-invariant. Counterexample schedules
//! extracted from the quotient graph are **de-canonicalized** through a
//! [`Concretizer`] into real executions before the witness is built, so
//! [`Witness::replay`] and [`Witness::confirm`] work on the raw, unreduced
//! system exactly as for unreduced verdicts.

use crate::checker;
pub use crate::checker::{CheckStats, DacInstance, Violation};
use crate::config::Configuration;
use crate::error::CheckError;
use crate::explore::{CheckParts, CheckRun, Edge, Exploration, ExplorationGraph, Explorer};
use crate::live::{EtaModel, ProgressWatcher};
use crate::sampling::{
    sample_confidence, sample_k_set_agreement_live, SampleConfig, SampleViolation, OUTCOME_SEED_XOR,
};
use crate::symmetry::{Concretizer, ConfigSymmetry};
use lbsa_core::spec::ObjectSpec;
use lbsa_core::{Pid, Value};
use lbsa_runtime::error::RuntimeError;
use lbsa_runtime::outcome::{OutcomeResolver, RandomOutcome};
use lbsa_runtime::process::{ProcStatus, Protocol};
use lbsa_runtime::scheduler::{RandomScheduler, Scheduler};
use lbsa_runtime::trace::{Trace, TraceEvent};
use lbsa_support::hash::FxHashMap;
use lbsa_support::json::Json;
use lbsa_support::obs::Tracer;
use std::fmt;

/// One step of a replayable schedule: which process moves and which
/// admissible object outcome resolves (0 for deterministic objects).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleStep {
    /// The process that steps.
    pub pid: Pid,
    /// The chosen outcome index.
    pub outcome: usize,
}

impl From<Edge> for ScheduleStep {
    fn from(e: Edge) -> Self {
        ScheduleStep {
            pid: e.pid,
            outcome: e.outcome,
        }
    }
}

impl ScheduleStep {
    fn to_json(self) -> Json {
        Json::object()
            .set("pid", self.pid.index())
            .set("outcome", self.outcome)
    }
}

/// The property a witness demonstrates the violation of. Each variant
/// carries exactly the parameters needed to re-evaluate the violated
/// predicate on a replayed configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum WitnessKind {
    /// More than `k` distinct values decided.
    Agreement {
        /// The agreement bound that was exceeded.
        k: usize,
    },
    /// A decided value outside the valid set.
    Validity {
        /// The admissible decision values.
        valid: Vec<Value>,
    },
    /// A decided value no non-aborted process proposed (n-DAC Validity).
    DacValidity {
        /// Each process's input, indexed by pid.
        inputs: Vec<Value>,
    },
    /// A terminal configuration with an undecided process.
    UndecidedTerminal,
    /// An infinite execution: the schedule leads to a configuration from
    /// which `cycle` returns to itself while the victims stay undecided.
    NonTermination {
        /// Processes stepping forever without deciding.
        victims: Vec<Pid>,
    },
    /// A configuration from which `pid` run solo fails to stop (or, when
    /// `must_decide`, fails to decide) within `bound` of its own steps.
    SoloNonTermination {
        /// The process run solo.
        pid: Pid,
        /// The step bound of the solo run.
        bound: usize,
        /// `true` if the solo run must *decide* (n-DAC Termination (b));
        /// `false` if stopping (decide/abort/halt) suffices (clause (a)).
        must_decide: bool,
    },
    /// The distinguished process aborted although no other process had
    /// taken a step (n-DAC Nontriviality; the schedule is `p`-solo).
    Nontriviality {
        /// The distinguished process.
        distinguished: Pid,
    },
}

/// The memo of [`WitnessKind::predicate`]'s solo probes: a
/// configuration's longest solo run, as `checker::stepped_solo_run`
/// records it.
type SoloMemo<L> = FxHashMap<Configuration<L>, Option<u32>>;

impl WitnessKind {
    /// A short machine-readable tag for reports.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            WitnessKind::Agreement { .. } => "agreement",
            WitnessKind::Validity { .. } => "validity",
            WitnessKind::DacValidity { .. } => "dac-validity",
            WitnessKind::UndecidedTerminal => "undecided-terminal",
            WitnessKind::NonTermination { .. } => "non-termination",
            WitnessKind::SoloNonTermination { .. } => "solo-non-termination",
            WitnessKind::Nontriviality { .. } => "nontriviality",
        }
    }

    /// Evaluates the violated *state* predicate on `config`, when the kind
    /// has one; `None` for kinds whose evidence is not a single
    /// configuration (non-termination cycles, solo runs).
    fn state_predicate<L: Clone + Eq + std::hash::Hash + std::fmt::Debug>(
        &self,
        config: &Configuration<L>,
    ) -> Option<bool> {
        match self {
            WitnessKind::Agreement { k } => Some(config.distinct_decisions().len() > *k),
            WitnessKind::Validity { valid } => Some(
                config
                    .distinct_decisions()
                    .iter()
                    .any(|v| !valid.contains(v)),
            ),
            WitnessKind::DacValidity { inputs } => {
                Some(config.distinct_decisions().iter().any(|v| {
                    !(0..inputs.len())
                        .any(|q| inputs.get(q) == Some(v) && !config.has_aborted(Pid(q)))
                }))
            }
            WitnessKind::UndecidedTerminal => Some(config.is_terminal() && !config.all_decided()),
            WitnessKind::Nontriviality { distinguished } => {
                Some(config.has_aborted(*distinguished))
            }
            WitnessKind::NonTermination { .. } | WitnessKind::SoloNonTermination { .. } => None,
        }
    }

    /// Evaluates the full violated predicate on `config`, running solo
    /// probes through `explorer` where the kind requires them. `None` for
    /// cycle-based kinds (their evidence is the cycle, not a configuration).
    ///
    /// `solo` memoizes the solo probes. An entry is exact for the kind's
    /// `(pid, must_decide)`, whatever the probe's start and bound, so one
    /// memo serves every evaluation of one kind, such as the prefixes a
    /// minimization tries.
    fn predicate<P: Protocol>(
        &self,
        explorer: &Explorer<'_, P>,
        config: &Configuration<P::LocalState>,
        solo: &mut SoloMemo<P::LocalState>,
    ) -> Result<Option<bool>, RuntimeError> {
        if let Some(hit) = self.state_predicate(config) {
            return Ok(Some(hit));
        }
        match self {
            WitnessKind::SoloNonTermination {
                pid,
                bound,
                must_decide,
            } => {
                if !matches!(config.procs.get(pid.index()), Some(ProcStatus::Running(_))) {
                    return Ok(Some(false));
                }
                let steps =
                    checker::stepped_solo_run(explorer, solo, config, *pid, *must_decide, *bound)
                        // A failed search leaves its path marked in the memo.
                        .inspect_err(|_| solo.clear())?;
                Ok(Some(steps as usize > *bound))
            }
            WitnessKind::NonTermination { .. } => Ok(None),
            _ => Ok(self.state_predicate(config)),
        }
    }
}

impl fmt::Display for WitnessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A replayable, minimized counterexample: the executable analogue of the
/// paper's "there is an execution in which …".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    /// The failing schedule, from the initial configuration.
    pub schedule: Vec<ScheduleStep>,
    /// For non-termination witnesses, the cycle pumped after `schedule`;
    /// empty otherwise.
    pub cycle: Vec<ScheduleStep>,
    /// The violated property, with the parameters to re-check it.
    pub kind: WitnessKind,
    /// The object-level trace of replaying `schedule` (plus one cycle lap
    /// for non-termination witnesses) — built on [`lbsa_runtime::trace`].
    pub trace: Trace,
    /// `true` once delta-minimization ran over the schedule.
    pub minimized: bool,
}

impl Witness {
    /// Total schedule length (prefix plus one cycle lap).
    #[must_use]
    pub fn len(&self) -> usize {
        self.schedule.len() + self.cycle.len()
    }

    /// `true` if the witness has no steps at all (a violation visible in
    /// the initial configuration).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replays `schedule` from the initial configuration, one chosen step
    /// at a time, rebuilding the trace.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::WitnessDiverged`] when a step cannot be
    /// replayed (the schedule does not belong to this protocol/object
    /// combination).
    pub fn replay<P: Protocol>(
        &self,
        explorer: &Explorer<'_, P>,
    ) -> Result<(Configuration<P::LocalState>, Trace), CheckError> {
        let mut config = explorer.initial_config();
        let mut trace = Trace::new();
        for (i, step) in self.schedule.iter().enumerate() {
            config = replay_one(explorer, config, *step, i, &mut trace)?;
        }
        explorer.tracer().emit_with("witness.replay", || {
            Json::object()
                .set("kind", self.kind.tag())
                .set("steps", self.schedule.len())
        });
        Ok((config, trace))
    }

    /// Replays the witness and re-evaluates the violated property,
    /// confirming the counterexample end to end.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::WitnessDiverged`] if replay fails or the
    /// replayed execution no longer violates the property.
    pub fn confirm<P: Protocol>(&self, explorer: &Explorer<'_, P>) -> Result<(), CheckError> {
        let result = self.confirm_inner(explorer);
        explorer.tracer().emit_with("witness.confirm", || {
            Json::object()
                .set("kind", self.kind.tag())
                .set("steps", self.len())
                .set("ok", result.is_ok())
        });
        result
    }

    fn confirm_inner<P: Protocol>(&self, explorer: &Explorer<'_, P>) -> Result<(), CheckError> {
        let (config, mut trace) = self.replay(explorer)?;
        match &self.kind {
            WitnessKind::NonTermination { victims } => {
                if self.cycle.is_empty() {
                    return Err(CheckError::WitnessDiverged {
                        step: self.schedule.len(),
                        reason: "non-termination witness has an empty cycle".to_string(),
                    });
                }
                let entry = config.clone();
                let mut cur = config;
                let mut stepped: Vec<Pid> = Vec::new();
                for (i, step) in self.cycle.iter().enumerate() {
                    let at = self.schedule.len() + i;
                    for victim in victims {
                        let undecided = cur
                            .procs
                            .get(victim.index())
                            .is_some_and(|s| s.decision().is_none());
                        if !undecided {
                            return Err(CheckError::WitnessDiverged {
                                step: at,
                                reason: format!("victim {victim} decided on the cycle"),
                            });
                        }
                    }
                    stepped.push(step.pid);
                    cur = replay_one(explorer, cur, *step, at, &mut trace)?;
                }
                if cur != entry {
                    return Err(CheckError::WitnessDiverged {
                        step: self.len(),
                        reason: "cycle does not return to its entry configuration".to_string(),
                    });
                }
                if let Some(v) = victims.iter().find(|v| !stepped.contains(v)) {
                    return Err(CheckError::WitnessDiverged {
                        step: self.len(),
                        reason: format!("victim {v} never steps on the cycle"),
                    });
                }
                Ok(())
            }
            kind => match kind.predicate(explorer, &config, &mut SoloMemo::default()) {
                Ok(Some(true)) => Ok(()),
                Ok(_) => Err(CheckError::WitnessDiverged {
                    step: self.schedule.len(),
                    reason: format!("replayed configuration does not violate {kind}"),
                }),
                Err(e) => Err(CheckError::Runtime(e)),
            },
        }
    }

    /// Serializes the witness for `reports/*.json`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .set("kind", self.kind.tag())
            .set(
                "schedule",
                Json::Arr(self.schedule.iter().map(|s| s.to_json()).collect()),
            )
            .set(
                "cycle",
                Json::Arr(self.cycle.iter().map(|s| s.to_json()).collect()),
            )
            .set("minimized", self.minimized)
            .set(
                "trace",
                Json::Arr(
                    self.trace
                        .iter()
                        .map(|e| Json::from(e.to_string()))
                        .collect(),
                ),
            )
    }
}

/// Emits the `witness.extract` trace event for a freshly built witness.
fn emit_extract(tracer: &Tracer, w: &Witness) {
    tracer.emit_with("witness.extract", || {
        Json::object()
            .set("kind", w.kind.tag())
            .set("schedule_len", w.schedule.len())
            .set("cycle_len", w.cycle.len())
            .set("minimized", w.minimized)
    });
}

/// Replays one chosen step, appending its trace event.
fn replay_one<P: Protocol>(
    explorer: &Explorer<'_, P>,
    config: Configuration<P::LocalState>,
    step: ScheduleStep,
    index: usize,
    trace: &mut Trace,
) -> Result<Configuration<P::LocalState>, CheckError> {
    match explorer.step(&config, step.pid, step.outcome) {
        Ok(rec) => {
            trace.push(TraceEvent {
                step: index,
                pid: step.pid,
                obj: rec.obj,
                op: rec.op,
                response: rec.response,
            });
            Ok(rec.config)
        }
        Err(e) => Err(CheckError::WitnessDiverged {
            step: index,
            reason: e.to_string(),
        }),
    }
}

/// How a check concluded.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Outcome {
    /// The property holds in every execution.
    Holds,
    /// The property held on every run of a sampling sweep — probabilistic
    /// evidence, not proof: `confidence` is the complement of the
    /// Clopper–Pearson upper bound on the per-schedule violation rate (see
    /// [`crate::sampling::sample_confidence`]).
    HoldsSampled {
        /// Seeded runs executed, all clean.
        runs: u64,
        /// Runs that reached quiescence (the rest hit the step budget).
        quiescent: u64,
        /// `1 − bound` where `bound` is the 95% Clopper–Pearson upper
        /// bound on the violation probability of a sampled schedule.
        confidence: f64,
        /// `true` when a confidence target (see
        /// [`SampleConfig::target_confidence`]) stopped the sweep before
        /// its full `runs` budget.
        stopped_early: bool,
    },
    /// A violation was found (the verdict's witness demonstrates it, when
    /// one could be extracted).
    Violated(Violation),
    /// The exploration was truncated; inconclusive.
    Truncated,
    /// The checking machinery itself failed.
    Error(CheckError),
}

impl Outcome {
    /// A short machine-readable tag for reports.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Outcome::Holds => "holds",
            Outcome::HoldsSampled { .. } => "holds-sampled",
            Outcome::Violated(_) => "violated",
            Outcome::Truncated => "truncated",
            Outcome::Error(_) => "error",
        }
    }
}

/// The typed result of a property check: how it concluded, what it cost,
/// and — for violations — a replayable counterexample.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// How the check concluded.
    pub outcome: Outcome,
    /// Work performed (configurations/transitions examined).
    pub stats: CheckStats,
    /// A minimized, replayable counterexample, when the outcome is
    /// [`Outcome::Violated`] and a schedule could be extracted.
    pub witness: Option<Witness>,
}

impl Verdict {
    /// `true` if the property was proven to hold.
    #[must_use]
    pub fn holds(&self) -> bool {
        matches!(self.outcome, Outcome::Holds)
    }

    /// `true` if a violation was found.
    #[must_use]
    pub fn is_violated(&self) -> bool {
        matches!(self.outcome, Outcome::Violated(_))
    }

    /// One-line human summary.
    #[must_use]
    pub fn describe(&self) -> String {
        match &self.outcome {
            Outcome::Holds => "holds".to_string(),
            Outcome::HoldsSampled {
                runs,
                confidence,
                stopped_early,
                ..
            } => format!(
                "holds on {runs} sampled runs{} (violation rate < {:.2e} at 95% confidence)",
                if *stopped_early {
                    " (stopped early at target confidence)"
                } else {
                    ""
                },
                1.0 - confidence
            ),
            Outcome::Violated(v) => format!("violated: {v}"),
            Outcome::Truncated => "inconclusive: exploration truncated".to_string(),
            Outcome::Error(e) => format!("error: {e}"),
        }
    }

    /// Serializes the verdict for `reports/*.json`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut doc = Json::object().set("outcome", self.outcome.tag());
        match &self.outcome {
            Outcome::Violated(v) => doc = doc.set("detail", v.to_string()),
            Outcome::Error(e) => doc = doc.set("detail", e.to_string()),
            Outcome::HoldsSampled {
                runs,
                quiescent,
                confidence,
                stopped_early,
            } => {
                doc = doc.set(
                    "sampled",
                    Json::object()
                        .set("runs", *runs)
                        .set("quiescent", *quiescent)
                        .set("confidence", *confidence)
                        .set("stopped_early", *stopped_early),
                );
            }
            _ => {}
        }
        doc = doc.set(
            "stats",
            Json::object()
                .set("configs", self.stats.configs)
                .set("transitions", self.stats.transitions),
        );
        doc.set(
            "witness",
            self.witness.as_ref().map_or(Json::Null, Witness::to_json),
        )
    }

    fn error(stats: CheckStats, e: CheckError) -> Verdict {
        Verdict {
            outcome: Outcome::Error(e),
            stats,
            witness: None,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

const EMPTY_STATS: CheckStats = CheckStats {
    configs: 0,
    transitions: 0,
};

/// Emits the end-of-check `verdict` trace event and passes the verdict
/// through. Every checking terminal routes its result here exactly once,
/// so a traced run shows one `verdict` line per check, named after the
/// property it decides.
fn traced(tracer: &Tracer, check: &'static str, verdict: Verdict) -> Verdict {
    tracer.emit_with("verdict", || {
        Json::object()
            .set("check", check)
            .set("outcome", verdict.outcome.tag())
            .set("configs", verdict.stats.configs)
            .set("transitions", verdict.stats.transitions)
            .set(
                "witness_len",
                verdict
                    .witness
                    .as_ref()
                    .map_or(Json::Null, |w| Json::from(w.len())),
            )
    });
    verdict
}

/// The property a checking terminal decides, with its parameters.
enum Property<'p> {
    KSetAgreement {
        k: usize,
        valid: &'p [Value],
    },
    Dac {
        instance: &'p DacInstance,
        solo_bound: usize,
    },
    WaitFree,
}

impl Property<'_> {
    /// The check's name in the `verdict` trace event.
    fn name(&self) -> &'static str {
        match self {
            Property::KSetAgreement { .. } => "k-set-agreement",
            Property::Dac { .. } => "dac",
            Property::WaitFree => "wait-free",
        }
    }

    /// Decides the property over a graph of `explorer`'s protocol.
    fn check<P: Protocol>(
        &self,
        explorer: &Explorer<'_, P>,
        graph: &ExplorationGraph<P::LocalState>,
        quotient: bool,
    ) -> Result<CheckStats, Violation> {
        match self {
            Property::KSetAgreement { k, valid } => checker::k_set_agreement(graph, *k, valid),
            Property::Dac {
                instance,
                solo_bound,
            } => checker::dac(explorer, graph, instance, *solo_bound, quotient),
            Property::WaitFree => checker::wait_free(graph),
        }
    }

    /// The re-checkable [`WitnessKind`] of a violation of this property,
    /// when it has one (a non-termination witness derives its own).
    fn witness_kind(&self, violation: &Violation) -> Option<WitnessKind> {
        Some(match (self, violation) {
            (_, Violation::UndecidedTerminal { .. }) => WitnessKind::UndecidedTerminal,
            (Property::KSetAgreement { k, .. }, Violation::Agreement { .. }) => {
                WitnessKind::Agreement { k: *k }
            }
            (Property::KSetAgreement { valid, .. }, Violation::Validity { .. }) => {
                WitnessKind::Validity {
                    valid: valid.to_vec(),
                }
            }
            (Property::Dac { .. }, Violation::Agreement { .. }) => WitnessKind::Agreement { k: 1 },
            (Property::Dac { instance, .. }, Violation::Validity { .. }) => {
                WitnessKind::DacValidity {
                    inputs: instance.inputs.clone(),
                }
            }
            (
                Property::Dac {
                    instance,
                    solo_bound,
                },
                Violation::SoloNonTermination { pid, .. },
            ) => WitnessKind::SoloNonTermination {
                pid: *pid,
                bound: *solo_bound,
                must_decide: *pid != instance.distinguished,
            },
            (Property::Dac { instance, .. }, Violation::Nontriviality { .. }) => {
                WitnessKind::Nontriviality {
                    distinguished: instance.distinguished,
                }
            }
            _ => return None,
        })
    }
}

/// The checking terminals of the [`Exploration`] builder: one per
/// property, each consuming the builder and answering with one
/// [`Verdict`]. A terminal explores exhaustively, respecting every builder
/// knob (limits, threads, symmetry, tracer), unless
/// [`Exploration::sample`] asked for a seeded sampling sweep. Either way
/// the verdict's violations carry replayable, minimized witnesses.
impl<'e, 'a, P: Protocol> Exploration<'e, 'a, P> {
    /// Checks consensus (`k = 1`); see
    /// [`Exploration::check_k_set_agreement`].
    #[must_use]
    pub fn check_consensus(self, valid_inputs: &[Value]) -> Verdict {
        self.check_k_set_agreement(1, valid_inputs)
    }

    /// Checks k-set agreement: at most `k` distinct decisions in any
    /// configuration, every decision in `valid_inputs`, and wait-free
    /// termination (see [`Exploration::check_wait_free`]). After
    /// [`Exploration::sample`] the positive outcome is
    /// [`Outcome::HoldsSampled`] with a confidence bound, and the verdict
    /// (and any violating seed) is independent of the thread count.
    #[must_use]
    pub fn check_k_set_agreement(self, k: usize, valid_inputs: &[Value]) -> Verdict {
        self.check(&Property::KSetAgreement {
            k,
            valid: valid_inputs,
        })
    }

    /// Checks the four n-DAC properties of Section 4 over every execution:
    /// Agreement, Validity (every decision is the input of a process that
    /// has not aborted), Termination (a)/(b) (from every reachable
    /// configuration, a solo run of `p` stops and a solo run of each
    /// `q ≠ p` decides within `solo_bound` of its own steps), and
    /// Nontriviality (`p` never aborts before another process has
    /// stepped). Exhaustive only: after [`Exploration::sample`] the
    /// verdict is an [`Outcome::Error`] carrying
    /// [`CheckError::NotSampleable`].
    #[must_use]
    pub fn check_dac(self, instance: &DacInstance, solo_bound: usize) -> Verdict {
        self.check(&Property::Dac {
            instance,
            solo_bound,
        })
    }

    /// Checks wait-free termination alone: no infinite execution (the
    /// witness is a pumpable cycle), and every terminal configuration
    /// fully decided. Exhaustive only, like [`Exploration::check_dac`].
    #[must_use]
    pub fn check_wait_free(self) -> Verdict {
        self.check(&Property::WaitFree)
    }

    fn check(self, property: &Property<'_>) -> Verdict {
        let parts = self.run_for_check();
        let sym = parts.symmetry.as_ref();
        let verdict = match (&parts.run, property) {
            (CheckRun::Explored(explored), _) => match &**explored {
                Err(e) => Verdict::error(EMPTY_STATS, e.clone().into()),
                Ok(graph) => match property.check(parts.explorer, graph, sym.is_some()) {
                    Ok(stats) => Verdict {
                        outcome: Outcome::Holds,
                        stats,
                        witness: None,
                    },
                    Err(violation) => {
                        let kind = property.witness_kind(&violation);
                        violation_verdict(parts.explorer, sym, graph, violation, kind)
                    }
                },
            },
            (CheckRun::Sample(config), Property::KSetAgreement { k, valid }) => {
                return sampled_verdict(&parts, *k, valid, *config);
            }
            (CheckRun::Sample(_), _) => Verdict::error(
                EMPTY_STATS,
                CheckError::NotSampleable {
                    check: property.name(),
                },
            ),
        };
        traced(&parts.tracer, property.name(), verdict)
    }
}

/// Checks k-set agreement by a seeded sampling sweep (see
/// [`crate::sampling`]): the positive outcome is [`Outcome::HoldsSampled`]
/// with a confidence bound, and a violating seed is replayed into a
/// [`ScheduleStep`] schedule and delta-minimized into the same
/// [`Witness::confirm`]-able witness as exhaustive checks. The progress
/// watcher, when asked for, brackets the sweep and its `verdict` event.
fn sampled_verdict<P: Protocol>(
    parts: &CheckParts<'_, '_, P>,
    k: usize,
    valid_inputs: &[Value],
    config: SampleConfig,
) -> Verdict {
    let watcher = match (parts.progress_every, &parts.live) {
        (Some(period), Some(live)) if parts.tracer.enabled() => Some(ProgressWatcher::spawn(
            live.clone(),
            parts.tracer.clone(),
            period,
            EtaModel::Sampling,
        )),
        _ => None,
    };
    let explorer = parts.explorer;
    let verdict = match sample_k_set_agreement_live(
        explorer.protocol(),
        explorer.objects(),
        k,
        valid_inputs,
        config,
        &parts.tracer,
        parts.live.as_ref(),
    ) {
        Ok(report) => Verdict {
            outcome: Outcome::HoldsSampled {
                runs: report.runs,
                quiescent: report.quiescent,
                confidence: sample_confidence(report.runs),
                stopped_early: report.stopped_early,
            },
            stats: CheckStats {
                configs: usize::try_from(report.runs).unwrap_or(usize::MAX),
                transitions: report.total_steps,
            },
            witness: None,
        },
        Err(violation) => sampled_violation_verdict(explorer, k, valid_inputs, config, violation),
    };
    let verdict = traced(&parts.tracer, "k-set-agreement", verdict);
    if let Some(watcher) = watcher {
        watcher.finish();
    }
    verdict
}

/// Builds the `Violated` verdict for a sampling violation: replays the
/// seed into a schedule and lifts it into a real, minimized witness.
/// Stats count the seeds tried up to the violating one (`configs`) and the
/// failing run's length (`transitions`) — both seed-deterministic, so the
/// verdict compares equal across thread counts.
fn sampled_violation_verdict<P: Protocol>(
    explorer: &Explorer<'_, P>,
    k: usize,
    valid_inputs: &[Value],
    config: SampleConfig,
    violation: SampleViolation,
) -> Verdict {
    let seeds_tried = violation.seed().wrapping_sub(config.seed0).wrapping_add(1);
    if let SampleViolation::Runtime { error, .. } = &violation {
        return Verdict::error(
            CheckStats {
                configs: usize::try_from(seeds_tried).unwrap_or(usize::MAX),
                transitions: 0,
            },
            error.clone().into(),
        );
    }
    let kind = match &violation {
        SampleViolation::Agreement { .. } => Some(WitnessKind::Agreement { k }),
        SampleViolation::Validity { .. } => Some(WitnessKind::Validity {
            valid: valid_inputs.to_vec(),
        }),
        SampleViolation::Runtime { .. } => None,
    };
    let schedule = sampled_schedule(explorer, violation.seed(), config.max_steps);
    let stats = CheckStats {
        configs: usize::try_from(seeds_tried).unwrap_or(usize::MAX),
        transitions: schedule.as_ref().map_or(0, Vec::len),
    };
    let witness = schedule
        .ok()
        .zip(kind)
        .and_then(|(schedule, kind)| finish_witness(explorer, schedule, Vec::new(), kind));
    Verdict {
        outcome: Outcome::Violated(Violation::Sampled(violation)),
        stats,
        witness,
    }
}

/// Re-derives a sampled run's schedule from its seed by driving
/// [`Explorer::step`] with the same seeded scheduler and outcome resolver
/// as the sweep's `System::run` — including consulting the resolver *only*
/// when an object offers more than one outcome, so the RNG streams stay
/// bit-aligned with the original run.
fn sampled_schedule<P: Protocol>(
    explorer: &Explorer<'_, P>,
    seed: u64,
    max_steps: usize,
) -> Result<Vec<ScheduleStep>, RuntimeError> {
    let mut scheduler = RandomScheduler::seeded(seed);
    let mut resolver = RandomOutcome::seeded(seed ^ OUTCOME_SEED_XOR);
    let mut config = explorer.initial_config();
    let mut schedule = Vec::new();
    loop {
        let enabled = config.enabled_pids();
        if enabled.is_empty() || schedule.len() >= max_steps {
            break;
        }
        let Some(pid) = scheduler.next_pid(&enabled) else {
            break;
        };
        let local = match &config.procs[pid.index()] {
            ProcStatus::Running(s) => s.clone(),
            _ => unreachable!("enabled pids are running"),
        };
        let (obj, op) = explorer.protocol().pending_op(pid, &local);
        let spec = explorer
            .objects()
            .get(obj.index())
            .ok_or(RuntimeError::ObjIdOutOfRange {
                obj,
                len: explorer.objects().len(),
            })?;
        let options = spec
            .outcomes(&config.object_states[obj.index()], &op)?
            .into_vec();
        let outcome = if options.len() == 1 {
            0
        } else {
            resolver.choose(pid, obj, &options).min(options.len() - 1)
        };
        config = explorer.step(&config, pid, outcome)?.config;
        schedule.push(ScheduleStep { pid, outcome });
    }
    Ok(schedule)
}

/// Builds the verdict for `violation`, found on `graph` — a quotient graph
/// when `sym` is given — extracting and minimizing a witness when `kind`
/// gives the re-checkable predicate.
fn violation_verdict<P: Protocol>(
    explorer: &Explorer<'_, P>,
    sym: Option<&ConfigSymmetry<'_, P::LocalState>>,
    graph: &ExplorationGraph<P::LocalState>,
    violation: Violation,
    kind: Option<WitnessKind>,
) -> Verdict {
    let stats = checker::stats(graph);
    let witness = match &violation {
        Violation::Truncated => {
            return Verdict {
                outcome: Outcome::Truncated,
                stats,
                witness: None,
            }
        }
        Violation::Runtime(e) => return Verdict::error(stats, e.clone().into()),
        Violation::NonTermination(w) => nontermination_witness(explorer, sym, graph, w),
        Violation::Agreement { config, .. }
        | Violation::Validity { config, .. }
        | Violation::UndecidedTerminal { config }
        | Violation::SoloNonTermination { config, .. }
        | Violation::Nontriviality { config } => {
            kind.and_then(|kind| state_witness(explorer, sym, graph, *config, kind))
        }
        _ => None,
    };
    Verdict {
        outcome: Outcome::Violated(violation),
        stats,
        witness,
    }
}

/// Walks a schedule read off the checked graph as a real execution. On a
/// raw graph the schedule already is one: the walk is the identity and
/// only tracks the configuration. On a quotient graph a [`Concretizer`]
/// de-canonicalizes every step.
enum Realizer<'e, 'a, 'p, P: Protocol> {
    Raw(&'e Explorer<'a, P>, Configuration<P::LocalState>),
    Quotient(Concretizer<'e, 'a, 'p, P>),
}

impl<'e, 'a, 'p, P: Protocol> Realizer<'e, 'a, 'p, P> {
    /// Walks `steps` from the initial configuration, returning the real
    /// schedule and the walker at its end.
    fn walk(
        explorer: &'e Explorer<'a, P>,
        sym: Option<&'e ConfigSymmetry<'p, P::LocalState>>,
        steps: &[ScheduleStep],
    ) -> Option<(Vec<ScheduleStep>, Self)> {
        let mut walker = match sym {
            Some(sym) => Realizer::Quotient(Concretizer::new(explorer, sym)),
            None => Realizer::Raw(explorer, explorer.initial_config()),
        };
        let real = steps
            .iter()
            .map(|s| walker.advance(*s))
            .collect::<Option<Vec<_>>>()?;
        Some((real, walker))
    }

    /// Advances by one graph step, returning the real step that realizes it.
    fn advance(&mut self, step: ScheduleStep) -> Option<ScheduleStep> {
        match self {
            Realizer::Raw(explorer, config) => {
                *config = explorer.step(config, step.pid, step.outcome).ok()?.config;
                Some(step)
            }
            Realizer::Quotient(walker) => {
                let (pid, outcome) = walker.advance(step.pid, step.outcome).ok()?;
                Some(ScheduleStep { pid, outcome })
            }
        }
    }

    /// The real configuration reached.
    fn real(&self) -> &Configuration<P::LocalState> {
        match self {
            Realizer::Raw(_, config) => config,
            Realizer::Quotient(walker) => walker.real(),
        }
    }

    /// The real process a pid of the graph's current configuration denotes.
    fn real_pid(&self, pid: Pid) -> Pid {
        match self {
            Realizer::Raw(..) => pid,
            Realizer::Quotient(walker) => walker.real_pid(pid),
        }
    }
}

/// Builds a witness for a violation visible at configuration `target`: the
/// BFS-shortest path to it (for Nontriviality, the shortest `p`-solo path),
/// realized on the raw system, then delta-minimized to the shortest failing
/// prefix by replaying and re-evaluating the predicate at every
/// intermediate configuration. A solo-run kind names a pid of the graph's
/// configuration; the real process it denotes is read off the walk's end.
fn state_witness<P: Protocol>(
    explorer: &Explorer<'_, P>,
    sym: Option<&ConfigSymmetry<'_, P::LocalState>>,
    graph: &ExplorationGraph<P::LocalState>,
    target: usize,
    kind: WitnessKind,
) -> Option<Witness> {
    let path = match &kind {
        // A `p`-solo path exists exactly when the checker's (config,
        // others-stepped) product BFS flagged the violation.
        WitnessKind::Nontriviality { distinguished: p } => graph.bfs_path(
            |e| e.pid == *p,
            |node| node == target || graph.configs[node].has_aborted(*p),
        )?,
        _ => graph.path_to(target)?,
    };
    let steps: Vec<ScheduleStep> = path.into_iter().map(ScheduleStep::from).collect();
    let (schedule, walker) = Realizer::walk(explorer, sym, &steps)?;
    let kind = match kind {
        WitnessKind::SoloNonTermination {
            pid,
            bound,
            must_decide,
        } => WitnessKind::SoloNonTermination {
            pid: walker.real_pid(pid),
            bound,
            must_decide,
        },
        k => k,
    };
    finish_witness(explorer, schedule, Vec::new(), kind)
}

/// Builds a non-termination witness. The DFS prefix is re-routed through
/// the BFS-shortest path to the cycle entry (this is the minimization —
/// never longer than the DFS prefix) and realized on the raw system, then
/// the cycle is walked lap by lap until a real configuration repeats. On a
/// raw graph that is the entry, after one lap. On a quotient graph a lap
/// only returns to the entry's orbit, but successive laps walk that
/// (finite) orbit, so by pigeonhole a real configuration repeats within
/// `|G| + 1` laps. Laps before the repeat join the prefix; the laps between
/// the two occurrences form the real cycle. Victims are the distinct pids
/// stepping on the real cycle — sound because decisions are absorbing, so a
/// process that steps on a closed cycle can never have decided anywhere on
/// it.
fn nontermination_witness<P: Protocol>(
    explorer: &Explorer<'_, P>,
    sym: Option<&ConfigSymmetry<'_, P::LocalState>>,
    graph: &ExplorationGraph<P::LocalState>,
    w: &crate::adversary::NonTerminationWitness,
) -> Option<Witness> {
    // Locate the cycle entry by walking the recorded prefix.
    let mut entry = 0usize;
    for e in &w.prefix {
        entry = graph.edges[entry]
            .iter()
            .find(|g| g.pid == e.pid && g.outcome == e.outcome)?
            .target;
    }
    let shortest = graph.path_to(entry)?;
    let prefix = if shortest.len() <= w.prefix.len() {
        shortest
    } else {
        w.prefix.clone()
    };
    let graph_prefix: Vec<ScheduleStep> = prefix.into_iter().map(ScheduleStep::from).collect();
    let graph_cycle: Vec<ScheduleStep> = w.cycle.iter().copied().map(ScheduleStep::from).collect();
    if graph_cycle.is_empty() {
        return None;
    }

    let (mut schedule, mut walker) = Realizer::walk(explorer, sym, &graph_prefix)?;
    let mut laps: Vec<Vec<ScheduleStep>> = Vec::new();
    let mut seen: Vec<Configuration<P::LocalState>> = vec![walker.real().clone()];
    let mut repeat = None;
    for _ in 0..=sym.map_or(1, ConfigSymmetry::group_order) {
        let lap = graph_cycle
            .iter()
            .map(|s| walker.advance(*s))
            .collect::<Option<Vec<_>>>()?;
        laps.push(lap);
        let reached = walker.real();
        if let Some(i) = seen.iter().position(|c| c == reached) {
            repeat = Some(i);
            break;
        }
        seen.push(reached.clone());
    }
    let start = repeat?;
    for lap in &laps[..start] {
        schedule.extend_from_slice(lap);
    }
    let cycle: Vec<ScheduleStep> = laps[start..].iter().flatten().copied().collect();
    let mut victims: Vec<Pid> = cycle.iter().map(|s| s.pid).collect();
    victims.sort_unstable();
    victims.dedup();
    let kind = WitnessKind::NonTermination { victims };
    // Replay prefix + one full real cycle for the trace.
    let mut config = explorer.initial_config();
    let mut trace = Trace::new();
    for (i, step) in schedule.iter().chain(cycle.iter()).enumerate() {
        config = replay_one(explorer, config, *step, i, &mut trace).ok()?;
    }
    let w = Witness {
        schedule,
        cycle,
        kind,
        trace,
        minimized: true,
    };
    emit_extract(explorer.tracer(), &w);
    Some(w)
}

/// Delta-minimizes `schedule` against `kind`'s predicate (shortest failing
/// prefix), replays the result for its trace, and assembles the witness.
fn finish_witness<P: Protocol>(
    explorer: &Explorer<'_, P>,
    schedule: Vec<ScheduleStep>,
    cycle: Vec<ScheduleStep>,
    kind: WitnessKind,
) -> Option<Witness> {
    let mut config = explorer.initial_config();
    let mut trace = Trace::new();
    let mut minimized: Vec<ScheduleStep> = Vec::new();
    let solo = &mut SoloMemo::default();
    let mut hit = matches!(kind.predicate(explorer, &config, solo), Ok(Some(true)));
    if !hit {
        for (i, step) in schedule.iter().enumerate() {
            config = replay_one(explorer, config, *step, i, &mut trace).ok()?;
            minimized.push(*step);
            if matches!(kind.predicate(explorer, &config, solo), Ok(Some(true))) {
                hit = true;
                break;
            }
        }
    }
    if !hit {
        return None;
    }
    let w = Witness {
        schedule: minimized,
        cycle,
        kind,
        trace,
        minimized: true,
    };
    emit_extract(explorer.tracer(), &w);
    Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Limits;
    use lbsa_core::value::int;
    use lbsa_core::{AnyObject, ObjId, Op};
    use lbsa_runtime::process::{Step, Symmetry};

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

    fn reg() -> Vec<AnyObject> {
        vec![AnyObject::register()]
    }

    /// Pid classes grouping processes with equal inputs.
    fn input_classes(inputs: &[Value]) -> Vec<u32> {
        inputs
            .iter()
            .map(|v| u32::try_from(inputs.iter().position(|w| w == v).unwrap()).unwrap())
            .collect()
    }

    impl Symmetry for GoodConsensus {
        fn pid_classes(&self) -> Vec<u32> {
            input_classes(&self.inputs)
        }
    }

    impl Symmetry for DecideOwn {
        fn pid_classes(&self) -> Vec<u32> {
            input_classes(&self.inputs)
        }
    }

    #[test]
    fn holding_verdict_has_no_witness() {
        let p = GoodConsensus {
            inputs: vec![int(0), int(1)],
        };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let v = ex.exploration().check_consensus(&[int(0), int(1)]);
        assert!(v.holds(), "{v}");
        assert!(v.witness.is_none());
        assert!(v.stats.configs > 0);
        assert_eq!(
            v.to_json().get("outcome").and_then(Json::as_str),
            Some("holds")
        );
    }

    #[test]
    fn agreement_witness_replays_and_confirms() {
        let p = DecideOwn {
            inputs: vec![int(0), int(1)],
        };
        let objects = reg();
        let ex = Explorer::new(&p, &objects);
        let v = ex.exploration().check_consensus(&[int(0), int(1)]);
        assert!(v.is_violated(), "{v}");
        let w = v.witness.expect("agreement violations carry a witness");
        assert!(w.minimized);
        assert_eq!(w.kind, WitnessKind::Agreement { k: 1 });
        // Two decisions require two steps; minimization cannot do better.
        assert_eq!(w.schedule.len(), 2);
        assert_eq!(w.trace.len(), w.schedule.len());
        w.confirm(&ex).expect("witness must confirm");
        let (config, _) = w.replay(&ex).unwrap();
        assert!(config.distinct_decisions().len() > 1);
    }

    #[test]
    fn tampered_witness_fails_confirmation() {
        let p = DecideOwn {
            inputs: vec![int(0), int(1)],
        };
        let objects = reg();
        let ex = Explorer::new(&p, &objects);
        let v = ex.exploration().check_consensus(&[int(0), int(1)]);
        let w = v.witness.unwrap();

        let mut truncated = w.clone();
        truncated.schedule.pop();
        assert!(matches!(
            truncated.confirm(&ex),
            Err(CheckError::WitnessDiverged { .. })
        ));

        let mut bad_outcome = w.clone();
        bad_outcome.schedule[0].outcome = 7;
        assert!(matches!(
            bad_outcome.confirm(&ex),
            Err(CheckError::WitnessDiverged { step: 0, .. })
        ));
    }

    #[test]
    fn truncated_exploration_yields_truncated_outcome() {
        let p = GoodConsensus {
            inputs: vec![int(0), int(1)],
        };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let v = ex
            .exploration()
            .limits(Limits::new(1))
            .check_consensus(&[int(0), int(1)]);
        assert!(matches!(v.outcome, Outcome::Truncated));
        assert!(v.witness.is_none());
        assert_eq!(
            v.to_json().get("outcome").and_then(Json::as_str),
            Some("truncated")
        );
    }

    #[test]
    fn wait_free_verdict_finds_cycles_with_pumpable_witness() {
        /// One process spinning forever on a register.
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
        let v = ex.exploration().check_wait_free();
        assert!(v.is_violated());
        let w = v.witness.expect("cycle witness");
        assert!(matches!(w.kind, WitnessKind::NonTermination { .. }));
        assert!(!w.cycle.is_empty());
        w.confirm(&ex).expect("cycle witness must confirm");
    }

    #[test]
    fn reduced_agreement_witness_confirms_on_the_raw_system() {
        let p = DecideOwn {
            inputs: vec![int(0), int(0), int(1), int(1)],
        };
        let objects = reg();
        let ex = Explorer::new(&p, &objects);
        let raw = ex.exploration().check_consensus(&[int(0), int(1)]);
        let reduced = ex
            .exploration()
            .symmetric()
            .check_consensus(&[int(0), int(1)]);
        assert!(raw.is_violated(), "{raw}");
        assert!(reduced.is_violated(), "{reduced}");
        assert!(
            reduced.stats.configs < raw.stats.configs,
            "reduction must shrink the checked graph: {} !< {}",
            reduced.stats.configs,
            raw.stats.configs
        );
        let w = reduced.witness.expect("reduced violations carry a witness");
        assert_eq!(w.kind, WitnessKind::Agreement { k: 1 });
        // The de-canonicalized schedule replays on the *raw* system.
        w.confirm(&ex)
            .expect("de-canonicalized witness must confirm");
    }

    #[test]
    fn reduced_verdicts_agree_when_the_property_holds() {
        let p = GoodConsensus {
            inputs: vec![int(0), int(0), int(0)],
        };
        let objects = vec![AnyObject::consensus(3).unwrap()];
        let ex = Explorer::new(&p, &objects);
        let raw = ex.exploration().check_consensus(&[int(0)]);
        let reduced = ex.exploration().symmetric().check_consensus(&[int(0)]);
        assert!(raw.holds(), "{raw}");
        assert!(reduced.holds(), "{reduced}");
        assert!(reduced.stats.configs < raw.stats.configs);
    }

    #[test]
    fn reduced_wait_free_verdict_pumps_a_real_cycle() {
        /// Two interchangeable processes spinning forever on a register.
        #[derive(Debug)]
        struct SpinAll {
            n: usize,
        }
        impl Protocol for SpinAll {
            type LocalState = ();
            fn num_processes(&self) -> usize {
                self.n
            }
            fn init(&self, _pid: Pid) {}
            fn pending_op(&self, _pid: Pid, _s: &()) -> (ObjId, Op) {
                (ObjId(0), Op::Read)
            }
            fn on_response(&self, _pid: Pid, _s: &(), _r: Value) -> Step<()> {
                Step::Continue(())
            }
        }
        impl Symmetry for SpinAll {
            fn pid_classes(&self) -> Vec<u32> {
                vec![0; self.n]
            }
        }
        let p = SpinAll { n: 2 };
        let objects = reg();
        let ex = Explorer::new(&p, &objects);
        let v = ex.exploration().symmetric().check_wait_free();
        assert!(v.is_violated(), "{v}");
        let w = v.witness.expect("cycle witness");
        let WitnessKind::NonTermination { victims } = &w.kind else {
            panic!("wrong kind: {:?}", w.kind);
        };
        assert!(!victims.is_empty());
        assert!(!w.cycle.is_empty());
        w.confirm(&ex)
            .expect("pumped cycle witness must confirm on the raw system");
    }

    #[test]
    fn traced_verdicts_emit_check_and_witness_events() {
        use lbsa_support::obs::MemorySink;
        let p = DecideOwn {
            inputs: vec![int(0), int(1)],
        };
        let objects = reg();
        let sink = MemorySink::new();
        let ex = Explorer::new(&p, &objects).with_trace(Tracer::new(sink.clone()));
        let v = ex.exploration().check_consensus(&[int(0), int(1)]);
        assert!(v.is_violated(), "{v}");
        v.witness
            .as_ref()
            .expect("witness present")
            .confirm(&ex)
            .expect("witness confirms");

        let names = sink.names();
        assert!(names.contains(&"explore.begin"), "{names:?}");
        assert_eq!(
            names.iter().filter(|n| **n == "verdict").count(),
            1,
            "exactly one verdict event per check: {names:?}"
        );
        assert!(names.contains(&"witness.extract"), "{names:?}");
        assert!(names.contains(&"witness.replay"), "{names:?}");
        assert!(names.contains(&"witness.confirm"), "{names:?}");

        let events = sink.events();
        let verdict_ev = events.iter().find(|e| e.name == "verdict").unwrap();
        assert_eq!(
            verdict_ev.fields.get("check").and_then(Json::as_str),
            Some("k-set-agreement")
        );
        assert_eq!(
            verdict_ev.fields.get("outcome").and_then(Json::as_str),
            Some("violated")
        );
        assert_eq!(
            verdict_ev.fields.get("witness_len").and_then(Json::as_i64),
            Some(2)
        );
        let confirm_ev = events.iter().find(|e| e.name == "witness.confirm").unwrap();
        assert_eq!(
            confirm_ev.fields.get("ok").and_then(Json::as_bool),
            Some(true)
        );
        // The verdict event follows the witness extraction that fed it.
        let extract_seq = events
            .iter()
            .find(|e| e.name == "witness.extract")
            .unwrap()
            .seq;
        assert!(verdict_ev.seq > extract_seq);
    }

    #[test]
    fn violated_verdict_json_shape() {
        let p = DecideOwn {
            inputs: vec![int(0), int(1)],
        };
        let objects = reg();
        let ex = Explorer::new(&p, &objects);
        let v = ex.exploration().check_consensus(&[int(0), int(1)]);
        let doc = v.to_json();
        assert_eq!(doc.get("outcome").and_then(Json::as_str), Some("violated"));
        assert!(doc.get("detail").is_some());
        let w = doc.get("witness").expect("witness present");
        assert_eq!(w.get("kind").and_then(Json::as_str), Some("agreement"));
        assert_eq!(w.get("minimized").and_then(Json::as_bool), Some(true));
        assert_eq!(w.get("schedule").and_then(Json::as_arr).unwrap().len(), 2);
        // The document round-trips through the parser.
        let parsed = Json::parse(&doc.pretty()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn nontriviality_witness_is_a_solo_run_of_the_distinguished_process() {
        /// `p0` aborts after one read, whatever the others did; `p1`
        /// decides its own input. Only Nontriviality fails.
        #[derive(Debug)]
        struct EagerAbort;
        impl Protocol for EagerAbort {
            type LocalState = ();
            fn num_processes(&self) -> usize {
                2
            }
            fn init(&self, _pid: Pid) {}
            fn pending_op(&self, _pid: Pid, _s: &()) -> (ObjId, Op) {
                (ObjId(0), Op::Read)
            }
            fn on_response(&self, pid: Pid, _s: &(), _r: Value) -> Step<()> {
                if pid == Pid(0) {
                    Step::Abort
                } else {
                    Step::Decide(int(1))
                }
            }
        }
        let p = EagerAbort;
        let objects = reg();
        let ex = Explorer::new(&p, &objects);
        let instance = DacInstance {
            distinguished: Pid(0),
            inputs: vec![int(0), int(1)],
        };
        let v = ex.exploration().check_dac(&instance, 4);
        assert!(
            matches!(
                v.outcome,
                Outcome::Violated(Violation::Nontriviality { .. })
            ),
            "{v}"
        );
        let w = v.witness.expect("nontriviality violations carry a witness");
        assert_eq!(
            w.kind,
            WitnessKind::Nontriviality {
                distinguished: Pid(0)
            }
        );
        assert_eq!(
            w.schedule,
            vec![ScheduleStep {
                pid: Pid(0),
                outcome: 0
            }]
        );
        w.confirm(&ex).expect("witness must confirm");
    }

    #[test]
    fn sampled_dac_and_wait_free_checks_are_rejected_with_a_typed_error() {
        use lbsa_support::obs::MemorySink;
        let p = GoodConsensus {
            inputs: vec![int(0), int(1)],
        };
        let objects = vec![AnyObject::consensus(2).unwrap()];
        let sink = MemorySink::new();
        let ex = Explorer::new(&p, &objects).with_trace(Tracer::new(sink.clone()));
        let instance = DacInstance {
            distinguished: Pid(0),
            inputs: p.inputs.clone(),
        };
        let verdicts = [
            (
                "dac",
                ex.exploration()
                    .sample(SampleConfig::default())
                    .check_dac(&instance, 8),
            ),
            (
                "wait-free",
                ex.exploration()
                    .sample(SampleConfig::default())
                    .check_wait_free(),
            ),
        ];
        for (check, v) in verdicts {
            assert_eq!(
                v.outcome,
                Outcome::Error(CheckError::NotSampleable { check }),
                "{v}"
            );
            assert_eq!(v.stats, EMPTY_STATS, "nothing may run: {v}");
            assert!(v.witness.is_none());
        }
        // Neither an exhaustive exploration nor a sampling sweep ran.
        let names = sink.names();
        assert!(!names.contains(&"explore.begin"), "{names:?}");
        assert!(!names.contains(&"sample.begin"), "{names:?}");
        assert_eq!(names.iter().filter(|n| **n == "verdict").count(), 2);
    }
}
