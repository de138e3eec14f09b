//! **exp_report** — aggregates the `reports/<exp_id>.json` artifacts.
//!
//! Every harnessed experiment binary (see `lbsa_bench::harness`) writes a
//! schema-tagged JSON artifact; this binary turns those artifacts back
//! into the markdown tables of `EXPERIMENTS.md` and checks them:
//!
//! * `exp_report` — validate every artifact in `reports/` and print its
//!   tables (markdown, identical to what the experiment binary printed);
//! * `exp_report --validate FILE` — validate one artifact, exit non-zero
//!   if it does not conform to `lbsa-report/v1` or `/v2`;
//! * `exp_report --validate-trace FILE` — check a `.trace.jsonl` span
//!   trace: every line must parse as a JSON object carrying a string
//!   `"event"` field and numeric `"seq"`/`"t_us"` fields, and the
//!   `progress`, `level` and `explore.recruit` events their numeric
//!   payload fields;
//! * `exp_report --metrics` — print every numeric metric of every
//!   artifact in `reports/` as flat `<id> <key> <value>` lines (v2
//!   artifacts embed a `metrics` object; v1 artifacts are skipped);
//! * `exp_report --metrics --against DIR` — same, but diff against the
//!   artifacts in `DIR`: shows both values and the ratio for metrics
//!   present on both sides;
//! * `exp_report --diff EXPERIMENTS.md` — locate each regenerated table in
//!   the committed document (by its header row) and require the committed
//!   rows to be **byte-identical**; exit non-zero on drift.
//!
//! Run with `cargo run --release -p lbsa-bench --bin exp_report`.

use lbsa_bench::harness::{table_from_json, validate_report};
use lbsa_hierarchy::report::Table;
use lbsa_support::json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    validate_report(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(doc)
}

/// The markdown lines of a table from its header row on (title and blank
/// line dropped) — the unit of byte-comparison against `EXPERIMENTS.md`.
fn body_lines(table: &Table) -> Vec<String> {
    table
        .to_string()
        .lines()
        .skip(2)
        .map(String::from)
        .collect()
}

/// Compares one regenerated table against the committed document.
/// Returns `Some(true)` on a byte-identical match, `Some(false)` on
/// drift, `None` when the table's header row does not appear (committed
/// docs legitimately summarize some tables by hand).
fn diff_table(table: &Table, committed: &[&str]) -> Option<bool> {
    let body = body_lines(table);
    let header = body.first()?;
    let at = committed.iter().position(|line| line == header)?;
    let window = committed.get(at..at + body.len())?;
    Some(window.iter().zip(&body).all(|(a, b)| a == b))
}

/// Checks one `.trace.jsonl` file: every line must parse as a JSON object
/// with a string `"event"` and numeric `"seq"` / `"t_us"`. Returns the
/// event count on success, the first offending line on failure.
fn validate_trace(path: &Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut events = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line)
            .map_err(|e| format!("{}:{}: not JSON: {e}", path.display(), lineno + 1))?;
        if doc.as_obj().is_none() {
            return Err(format!("{}:{}: not an object", path.display(), lineno + 1));
        }
        if doc.get("event").and_then(Json::as_str).is_none() {
            return Err(format!(
                "{}:{}: missing string \"event\" field",
                path.display(),
                lineno + 1
            ));
        }
        for key in ["seq", "t_us"] {
            if doc.get(key).and_then(Json::as_i64).is_none() {
                return Err(format!(
                    "{}:{}: missing numeric {key:?} field",
                    path.display(),
                    lineno + 1
                ));
            }
        }
        let checked = match doc.get("event").and_then(Json::as_str) {
            Some("progress") => validate_progress_event(&doc),
            Some("explore.recruit") => validate_numeric(&doc, "explore.recruit", RECRUIT_FIELDS),
            Some("level") => validate_numeric(&doc, "level", LEVEL_FIELDS),
            _ => Ok(()),
        };
        checked.map_err(|e| format!("{}:{}: {e}", path.display(), lineno + 1))?;
        events += 1;
    }
    Ok(events)
}

/// Numeric fields of the engine's `explore.recruit` event: where a run
/// handed its frontier to the work-stealing pool, and with how many
/// helpers.
const RECRUIT_FIELDS: &[&str] = &["level", "at_us", "helpers", "frontier"];

/// Numeric fields of the engine's per-level `level` event.
const LEVEL_FIELDS: &[&str] = &["level", "width", "transitions", "dedup", "elapsed_us"];

/// Checks that `doc` (a `name` event) carries every field of `fields` as a
/// number.
fn validate_numeric(doc: &Json, name: &str, fields: &[&str]) -> Result<(), String> {
    for key in fields {
        if doc.get(key).and_then(Json::as_f64).is_none() {
            return Err(format!("{name} event missing numeric {key:?} field"));
        }
    }
    Ok(())
}

/// Schema check for the live sampler's `progress` events (emitted by
/// `Exploration::progress_every`, documented in
/// `crates/explorer/src/live.rs`): the cockpit-facing fields must be
/// numeric, and the strategy tag must be a string.
fn validate_progress_event(doc: &Json) -> Result<(), String> {
    if doc.get("strategy").and_then(Json::as_str).is_none() {
        return Err("progress event missing string \"strategy\" field".into());
    }
    for key in [
        "configs",
        "configs_per_sec",
        "ema_configs_per_sec",
        "frontier_depth",
        "eta_us",
        "mem_bytes",
        "elapsed_us",
    ] {
        if doc.get(key).and_then(Json::as_f64).is_none() {
            return Err(format!("progress event missing numeric {key:?} field"));
        }
    }
    Ok(())
}

/// Flattens the numeric entries of a report's `metrics` object into
/// sorted `(key, value)` pairs, recursing into nested objects with
/// dotted keys — `"hist": {"level_expand": {"p50_ns": 9}}` becomes
/// `hist.level_expand.p50_ns = 9` — so the v2 histogram payloads diff
/// key-by-key under `--against` instead of being skipped as non-numeric.
fn numeric_metrics(doc: &Json) -> Vec<(String, f64)> {
    fn collect(prefix: &str, value: &Json, out: &mut Vec<(String, f64)>) {
        if let Some(x) = value.as_f64() {
            out.push((prefix.to_string(), x));
        } else if let Some(fields) = value.as_obj() {
            for (k, v) in fields {
                let key = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                collect(&key, v, out);
            }
        }
    }
    let mut out = Vec::new();
    if let Some(metrics) = doc.get("metrics") {
        collect("", metrics, &mut out);
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

fn json_artifacts(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// `--metrics` mode: print (and optionally diff) every numeric metric.
fn metrics_mode(reports_dir: &Path, against: Option<&Path>) -> ExitCode {
    let paths = match json_artifacts(reports_dir) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("exp_report: cannot read {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for path in &paths {
        let doc = match load(path) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("invalid: {e}");
                ok = false;
                continue;
            }
        };
        let id = doc
            .get("id")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("?");
        println!("# {id} {schema}");
        let base =
            against.map(|dir| dir.join(path.file_name().expect("artifact paths have file names")));
        let baseline = base.as_deref().and_then(|p| load(p).ok());
        let old: std::collections::BTreeMap<String, f64> = baseline
            .as_ref()
            .map(|d| numeric_metrics(d).into_iter().collect())
            .unwrap_or_default();
        for (key, value) in numeric_metrics(&doc) {
            match old.get(&key) {
                Some(prev) if *prev != 0.0 => {
                    println!("{id} {key} {value} (was {prev}, x{:.2})", value / prev)
                }
                Some(prev) => println!("{id} {key} {value} (was {prev})"),
                None => println!("{id} {key} {value}"),
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut reports_dir = PathBuf::from("reports");
    let mut validate_only: Vec<PathBuf> = Vec::new();
    let mut validate_traces: Vec<PathBuf> = Vec::new();
    let mut diff_against: Option<PathBuf> = None;
    let mut metrics = false;
    let mut against: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value_of = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("exp_report: missing value for {flag}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--reports-dir" => reports_dir = PathBuf::from(value_of("--reports-dir")),
            "--validate" => validate_only.push(PathBuf::from(value_of("--validate"))),
            "--validate-trace" => validate_traces.push(PathBuf::from(value_of("--validate-trace"))),
            "--diff" => diff_against = Some(PathBuf::from(value_of("--diff"))),
            "--metrics" => metrics = true,
            "--against" => against = Some(PathBuf::from(value_of("--against"))),
            other => {
                eprintln!(
                    "exp_report: unknown argument {other:?} \
                     (takes --reports-dir DIR | --validate FILE | --validate-trace FILE \
                     | --metrics [--against DIR] | --diff FILE)"
                );
                return ExitCode::from(2);
            }
        }
    }

    if !validate_only.is_empty() || !validate_traces.is_empty() {
        let mut ok = true;
        for path in &validate_only {
            match load(path) {
                Ok(doc) => {
                    let id = doc.get("id").and_then(Json::as_str).unwrap_or("?");
                    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("?");
                    println!("{}: valid {schema} ({id})", path.display());
                }
                Err(e) => {
                    eprintln!("invalid: {e}");
                    ok = false;
                }
            }
        }
        for path in &validate_traces {
            match validate_trace(path) {
                Ok(events) => println!("{}: well-formed trace ({events} events)", path.display()),
                Err(e) => {
                    eprintln!("invalid trace: {e}");
                    ok = false;
                }
            }
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if metrics {
        return metrics_mode(&reports_dir, against.as_deref());
    }

    let paths = match json_artifacts(&reports_dir) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("exp_report: cannot read {e}");
            return ExitCode::FAILURE;
        }
    };
    if paths.is_empty() {
        eprintln!(
            "exp_report: no artifacts in {} (run the exp_* binaries first)",
            reports_dir.display()
        );
        return ExitCode::FAILURE;
    }

    let committed_text = diff_against.as_ref().map(|path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("exp_report: cannot read {}: {e}", path.display());
            std::process::exit(1);
        })
    });
    let committed: Option<Vec<&str>> = committed_text.as_ref().map(|t| t.lines().collect());

    let mut drift = false;
    for path in &paths {
        let doc = match load(path) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("invalid: {e}");
                drift = true;
                continue;
            }
        };
        let id = doc.get("id").and_then(Json::as_str).unwrap_or("?");
        let tables = doc.get("tables").and_then(Json::as_arr).unwrap_or(&[]);
        for t in tables {
            let table = table_from_json(t).expect("validated above");
            match &committed {
                None => println!("{table}"),
                Some(lines) => match diff_table(&table, lines) {
                    Some(true) => {
                        println!("{id}: `{}` — rows match byte-for-byte", table.title());
                    }
                    Some(false) => {
                        println!("{id}: `{}` — DRIFT from committed rows", table.title());
                        drift = true;
                    }
                    None => {
                        println!(
                            "{id}: `{}` — not present verbatim (summarized)",
                            table.title()
                        );
                    }
                },
            }
        }
    }
    if drift {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_events_require_the_cockpit_fields() {
        let good = Json::parse(
            r#"{"seq":1,"t_us":50,"event":"progress","strategy":"work-stealing",
                "configs":380,"configs_per_sec":1000.0,"ema_configs_per_sec":900.0,
                "frontier_depth":42,"workers":4,"utilization":0.75,"eta_us":310000,
                "mem_bytes":1048576,"elapsed_us":2600,"final":false}"#,
        )
        .expect("test event");
        assert!(validate_progress_event(&good).is_ok());

        let missing_eta = Json::parse(
            r#"{"event":"progress","strategy":"sampling","configs":1,
                "configs_per_sec":1.0,"ema_configs_per_sec":1.0,"frontier_depth":0,
                "mem_bytes":0,"elapsed_us":1}"#,
        )
        .expect("test event");
        let err = validate_progress_event(&missing_eta).expect_err("eta_us required");
        assert!(err.contains("eta_us"), "err: {err}");

        let missing_strategy = Json::parse(r#"{"event":"progress","configs":1}"#).expect("event");
        let err = validate_progress_event(&missing_strategy).expect_err("strategy required");
        assert!(err.contains("strategy"), "err: {err}");
    }

    #[test]
    fn recruit_and_level_events_require_their_numeric_fields() {
        let recruit = Json::parse(
            r#"{"seq":3,"t_us":90,"event":"explore.recruit","level":4,"at_us":5200,
                "helpers":1,"frontier":96,"forced":false}"#,
        )
        .expect("test event");
        assert!(validate_numeric(&recruit, "explore.recruit", RECRUIT_FIELDS).is_ok());
        let no_helpers =
            Json::parse(r#"{"event":"explore.recruit","level":4,"at_us":1,"frontier":2}"#)
                .expect("test event");
        let err = validate_numeric(&no_helpers, "explore.recruit", RECRUIT_FIELDS)
            .expect_err("helpers required");
        assert!(err.contains("helpers"), "err: {err}");
        let level = Json::parse(
            r#"{"event":"level","level":2,"width":9,"transitions":20,"dedup":11,
                "elapsed_us":0,"pooled":true}"#,
        )
        .expect("test event");
        assert!(validate_numeric(&level, "level", LEVEL_FIELDS).is_ok());
    }

    #[test]
    fn numeric_metrics_recurse_into_nested_objects_with_dotted_keys() {
        let doc = Json::parse(
            r#"{"schema":"lbsa-report/v2","id":"x","metrics":{
                "configs": 275,
                "hist": {"level_expand": {"count": 12, "p50_ns": 4096},
                         "steal": {"p95_ns": 512}},
                "title": "not numeric"
            }}"#,
        )
        .expect("test doc");
        let flat = numeric_metrics(&doc);
        assert_eq!(
            flat,
            vec![
                ("configs".to_string(), 275.0),
                ("hist.level_expand.count".to_string(), 12.0),
                ("hist.level_expand.p50_ns".to_string(), 4096.0),
                ("hist.steal.p95_ns".to_string(), 512.0),
            ]
        );
    }
}
