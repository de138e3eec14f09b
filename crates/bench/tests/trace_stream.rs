//! Trace-stream contracts under the concurrent engines.
//!
//! The `lbsa_support::obs` unit tests pin the sink mechanics in
//! isolation; these tests drive the real work-stealing pool (recruited at
//! the root with `force_parallel`) and check
//! the two properties the trace *consumers* (`obs_analyze`, the `--regress`
//! tracker) lean on:
//!
//! * **total order** — cloned `Tracer`s in concurrent workers share one
//!   sequence counter, so the collected stream carries every sequence
//!   number exactly once: sorting by `seq` is a total order of the run,
//!   whatever the arrival interleaving at the sink was;
//! * **flush-on-`Drop` durability** — a `JsonlSink` trace left to go out
//!   of scope without an explicit `flush()` still lands complete on disk
//!   and passes the same checks as `exp_report --validate-trace`;
//! * **tail-friendliness** — a reader following the file *while the
//!   engine writes it* (the `obs_top --follow` scenario) only ever sees
//!   whole, parseable JSONL lines, because the sink flushes on line
//!   boundaries (every `JSONL_FLUSH_EVERY` events and on every
//!   `progress` event).

use lbsa_bench::mixed_binary_inputs;
use lbsa_core::{AnyObject, ObjId, Pid};
use lbsa_explorer::{Explorer, JsonlSink, MemorySink, Tracer};
use lbsa_protocols::dac::DacFromPac;
use lbsa_support::json::Json;

const N: usize = 5;

fn explorer_input() -> (DacFromPac, Vec<AnyObject>) {
    let p = DacFromPac::new(mixed_binary_inputs(N), Pid(0), ObjId(0)).unwrap();
    let objects = vec![AnyObject::pac(N).unwrap()];
    (p, objects)
}

#[test]
fn concurrent_ws_workers_emit_one_totally_ordered_stream() {
    let (p, objects) = explorer_input();
    let explorer = Explorer::new(&p, &objects);
    let sink = MemorySink::new();
    let tracer = Tracer::new(sink.clone());
    let g = explorer
        .exploration()
        .force_parallel()
        .threads(4)
        .trace(tracer.clone())
        .run()
        .unwrap();
    assert!(g.configs.len() > 100, "workload big enough to interleave");

    let events = sink.events();
    assert_eq!(
        events.len() as u64,
        tracer.events_emitted(),
        "every emitted event reached the sink"
    );
    // The workers each emitted through their own clone of the tracer; the
    // shared counter must have handed out every sequence number exactly
    // once — no duplicates, no gaps. Arrival order at the sink is allowed
    // to interleave; sorting by seq is the total order.
    let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (0..events.len() as u64).collect::<Vec<u64>>());

    // The stream really is multi-worker: every spawned worker signs off.
    let workers: std::collections::BTreeSet<i64> = events
        .iter()
        .filter(|e| e.name == "ws.done")
        .filter_map(|e| e.fields.get("worker").and_then(Json::as_i64))
        .collect();
    assert_eq!(workers.len(), 4, "one ws.done per worker: {workers:?}");
}

#[test]
fn jsonl_trace_survives_drop_without_explicit_flush() {
    let path = std::env::temp_dir().join(format!(
        "lbsa-trace-stream-{}-{:?}.trace.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    let emitted;
    {
        let (p, objects) = explorer_input();
        let explorer = Explorer::new(&p, &objects);
        let tracer = Tracer::new(JsonlSink::create(&path).expect("temp trace file"));
        let g = explorer
            .exploration()
            .force_parallel()
            .threads(2)
            .trace(tracer.clone())
            .run()
            .unwrap();
        assert!(g.configs.len() > 100);
        emitted = tracer.events_emitted();
        // No tracer.flush() here: everything the engine buffered must be
        // written by JsonlSink's Drop when the last clone dies with this
        // scope.
    }
    let text = std::fs::read_to_string(&path).expect("trace file exists after drop");
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    assert_eq!(lines.len() as u64, emitted, "no buffered tail lost on drop");
    // The same per-line checks `exp_report --validate-trace` runs: JSON
    // object, string "event", numeric "seq" and "t_us".
    for (lineno, line) in lines.iter().enumerate() {
        let doc = Json::parse(line)
            .unwrap_or_else(|e| panic!("line {}: not JSON ({e}): {line}", lineno + 1));
        assert!(doc.as_obj().is_some(), "line {}: not an object", lineno + 1);
        assert!(
            doc.get("event").and_then(Json::as_str).is_some(),
            "line {}: missing event name",
            lineno + 1
        );
        for key in ["seq", "t_us"] {
            assert!(
                doc.get(key).and_then(Json::as_i64).is_some(),
                "line {}: missing numeric {key}",
                lineno + 1
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn concurrently_tailed_trace_yields_only_whole_jsonl_lines() {
    let path = std::env::temp_dir().join(format!(
        "lbsa-trace-tail-{}-{:?}.trace.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    let tracer = Tracer::new(JsonlSink::create(&path).expect("temp trace file"));

    // Writer: a traced WS run with a fast progress sampler, on its own
    // thread so this test can read the file while it grows.
    let writer_tracer = tracer.clone();
    let writer = std::thread::spawn(move || {
        let (p, objects) = explorer_input();
        let explorer = Explorer::new(&p, &objects);
        explorer
            .exploration()
            .force_parallel()
            .threads(2)
            .trace(writer_tracer)
            .progress_every(std::time::Duration::from_millis(1))
            .run()
            .unwrap()
            .configs
            .len()
    });

    // Reader: poll the growing file. Every complete line (up to the last
    // newline) must parse — a torn line would mean the sink flushed
    // mid-`writeln!`, which the per-line Mutex + BufWriter forbid.
    let mut tail_checks = 0usize;
    for _ in 0..200 {
        let text = std::fs::read_to_string(&path).expect("trace file readable mid-run");
        if let Some(whole) = text.rfind('\n').map(|at| &text[..at]) {
            for line in whole.lines().filter(|l| !l.trim().is_empty()) {
                let doc = Json::parse(line)
                    .unwrap_or_else(|e| panic!("torn/partial line mid-run ({e}): {line:?}"));
                assert!(
                    doc.get("event").and_then(Json::as_str).is_some(),
                    "mid-run line without event name: {line:?}"
                );
                tail_checks += 1;
            }
        }
        if writer.is_finished() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    let configs = writer.join().expect("writer run");
    assert!(configs > 100);
    assert!(
        tail_checks > 0,
        "the tail saw at least one complete line while the run was live"
    );
    tracer.flush();
    // After the run, the same final-state validation as the drop test.
    let text = std::fs::read_to_string(&path).expect("final trace");
    let lines = text.lines().filter(|l| !l.trim().is_empty()).count();
    assert_eq!(lines as u64, tracer.events_emitted());
    assert!(
        text.lines().any(|l| l.contains("\"event\":\"progress\"")),
        "the sampler's progress events landed in the tailed file"
    );
    let _ = std::fs::remove_file(&path);
}
