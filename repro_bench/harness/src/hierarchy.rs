//! `paper_repro` layers measured in process: the `lbsa-hierarchy` entry
//! points on the T4/T5/T6 instances and the Wing–Gold checker on the
//! Lemma 6.4 histories. Each result is checked like an op's.

use crate::layers::{timed, Layer};
use crate::out::{metric, Spans};
use crate::work::Check;
use lbsa_core::{AnyObject, ObjId, SpecError, Value};
use lbsa_explorer::linearizability::check_linearizable;
use lbsa_explorer::Limits;
use lbsa_hierarchy::certify::{certified_consensus_number, Face};
use lbsa_hierarchy::power::{certify_power_table_o_n, certify_power_table_o_prime};
use lbsa_hierarchy::separation::run_separation;
use lbsa_protocols::derived_impls::PowerFromConsensusAndSa;
use lbsa_protocols::set_agreement_protocols::KSetViaPowerLevel;
use lbsa_runtime::derived::{record_frontend_history, DerivedProtocol};
use lbsa_runtime::outcome::RandomOutcome;
use lbsa_runtime::scheduler::RandomScheduler;

/// The T5 separation instances: (n, K, Lemma 6.4 history seeds).
const SEPARATION: [(usize, usize, u64); 2] = [(2, 2, 10), (3, 2, 6)];

fn t5_limits() -> Limits {
    Limits::new(2_000_000)
}

/// The T4 table's objects (certified with cap 5) followed by T6's two
/// (cap 4): (slug, object, face, cap, budget).
fn certify_cases() -> Vec<(&'static str, AnyObject, Face, usize, Limits)> {
    let t4 = |slug, object, face| (slug, object, face, 5, Limits::new(2_000_000));
    let t6 = |slug, object, face| (slug, object, face, 4, Limits::new(5_000_000));
    let ok = |object: Result<AnyObject, SpecError>| object.expect("valid object parameters");
    vec![
        t4("consensus_1", ok(AnyObject::consensus(1)), Face::Propose),
        t4("consensus_2", ok(AnyObject::consensus(2)), Face::Propose),
        t4("consensus_3", ok(AnyObject::consensus(3)), Face::Propose),
        t4("consensus_4", ok(AnyObject::consensus(4)), Face::Propose),
        t4("strong_sa", AnyObject::strong_sa(), Face::Propose),
        t4("sa_3_1", ok(AnyObject::set_agreement(3, 1)), Face::Propose),
        t4("sa_4_2", ok(AnyObject::set_agreement(4, 2)), Face::Propose),
        t4("pac_5_2", ok(AnyObject::combined_pac(5, 2)), Face::ProposeC),
        t4("pac_2_3", ok(AnyObject::combined_pac(2, 3)), Face::ProposeC),
        t4("o_2", ok(AnyObject::o_n(2)), Face::ProposeC),
        t4("o_3", ok(AnyObject::o_n(3)), Face::ProposeC),
        t4(
            "o_prime_2",
            ok(AnyObject::o_prime_n(2, 2)),
            Face::PowerLevel1,
        ),
        t4(
            "o_prime_3",
            ok(AnyObject::o_prime_n(3, 2)),
            Face::PowerLevel1,
        ),
        t6(
            "t6_pac_4_2",
            ok(AnyObject::combined_pac(4, 2)),
            Face::ProposeC,
        ),
        t6("t6_consensus_3", ok(AnyObject::consensus(3)), Face::Propose),
    ]
}

fn power_entries(table: &lbsa_core::power_object::SetAgreementPower) -> Vec<(&'static str, u64)> {
    let names = ["n_1", "n_2", "n_3", "n_4"];
    table
        .iter()
        .take(names.len())
        .map(|(k, n_k)| (names[k - 1], n_k as u64))
        .collect()
}

/// The Lemma 6.4 front-end histories of one separation instance, recorded
/// exactly as `run_separation` records them.
fn lemma_6_4_histories(
    n: usize,
    max_k: usize,
    seeds: u64,
) -> (Vec<Vec<lbsa_runtime::derived::CompletedOp>>, Vec<AnyObject>) {
    let specs = vec![AnyObject::o_prime_n(n, max_k).expect("valid power object")];
    let procedure = PowerFromConsensusAndSa::new(max_k);
    let inputs: Vec<Value> = (0..max_k * n).map(|i| Value::Int(i as i64)).collect();
    let inner = KSetViaPowerLevel::new(inputs, ObjId(0), max_k);
    let mut bases = vec![ObjId(0)];
    bases.extend((1..max_k).map(ObjId));
    let histories = (0..seeds)
        .map(|seed| {
            let frontends = vec![PowerFromConsensusAndSa::frontend(bases.clone())];
            let derived = DerivedProtocol::new(&inner, &procedure, frontends);
            let mut objects = vec![AnyObject::consensus(n).expect("n >= 1")];
            objects.extend((2..=max_k).map(|_| AnyObject::strong_sa()));
            record_frontend_history(
                &derived,
                &objects,
                &mut RandomScheduler::seeded(seed),
                &mut RandomOutcome::seeded(seed.wrapping_mul(0x9E37_79B9)),
                10_000,
            )
            .expect("runs are error-free")
            .0
        })
        .collect();
    (histories, specs)
}

pub fn hierarchy_block(spans: &mut Spans) {
    spans.next_op();
    let block = spans.begin("layers.hierarchy");

    let (_, separation) = timed(spans, "hierarchy.run_separation", || {
        for (n, max_k, seeds) in SEPARATION {
            let check = match run_separation(n, max_k, t5_limits(), seeds) {
                Ok(report) => Check {
                    key: format!("hierarchy/separation/n{n}"),
                    verdict: if report.separation_established() {
                        "established".into()
                    } else {
                        "not-established".into()
                    },
                    fields: vec![
                        ("powers_match", u64::from(report.powers_match())),
                        ("histories", report.lemma_6_4_histories_checked as u64),
                        ("refutations", report.refutations.len() as u64),
                    ],
                },
                Err(e) => error_check(format!("hierarchy/separation/n{n}"), &e),
            };
            check.emit();
        }
        ((), SEPARATION.len() as u64)
    });

    let (_, power) = timed(spans, "hierarchy.certify_power_table", || {
        for (n, max_k, _) in SEPARATION {
            for (name, table) in [
                ("o_n", certify_power_table_o_n(n, max_k, t5_limits())),
                (
                    "o_prime",
                    certify_power_table_o_prime(n, max_k, t5_limits()),
                ),
            ] {
                let key = format!("hierarchy/power/{name}/n{n}");
                match table {
                    Ok(table) => Check {
                        key,
                        verdict: "certified".into(),
                        fields: power_entries(&table),
                    },
                    Err(e) => error_check(key, &e),
                }
                .emit();
            }
        }
        ((), 2 * SEPARATION.len() as u64)
    });

    let cases = certify_cases();
    let (_, certify) = timed(spans, "hierarchy.certified_consensus_number", || {
        for (slug, object, face, cap, limits) in &cases {
            let key = format!("hierarchy/certify/{slug}");
            match certified_consensus_number(object, *face, *cap, *limits) {
                Ok(cert) => Check {
                    key,
                    verdict: "certified".into(),
                    fields: vec![
                        ("level", cert.level as u64),
                        ("configs", cert.upper.configs as u64),
                    ],
                },
                Err(e) => error_check(key, &e),
            }
            .emit();
        }
        ((), cases.len() as u64)
    });

    let mut histories = Layer::default();
    for (n, max_k, seeds) in SEPARATION {
        let (recorded, specs) = lemma_6_4_histories(n, max_k, seeds);
        let (linearizable, layer) = timed(spans, "linearizability.check_linearizable", || {
            let ok = recorded
                .iter()
                .filter(|h| check_linearizable(h, &specs).is_ok())
                .count();
            (ok, recorded.len() as u64)
        });
        Check {
            key: format!("linearizability/n{n}"),
            verdict: "checked".into(),
            fields: vec![("linearizable", linearizable as u64)],
        }
        .emit();
        histories.total += layer.total;
        histories.count += layer.count;
    }

    metric(
        "hierarchy.separation_s",
        separation.total.as_secs_f64(),
        "s",
    );
    metric("hierarchy.power_s", power.total.as_secs_f64(), "s");
    metric("hierarchy.certify_s", certify.total.as_secs_f64(), "s");
    metric(
        "linearizability.history_ms",
        histories.total.as_secs_f64() * 1e3 / histories.count.max(1) as f64,
        "ms",
    );
    spans.end(block, 0);
}

fn error_check(key: String, error: &dyn std::fmt::Display) -> Check {
    Check {
        key,
        verdict: format!("error: {error}"),
        fields: Vec::new(),
    }
}
