#!/usr/bin/env python3
"""The repository benchmark: how long reproducing the paper takes, how fast
the exhaustive and sampled checkers reach their verdicts, and what each
layer costs, measured from outside the program.

Run from the root of a checkout:

    python3 repro_bench/run.py --workload kset_exhaustive --seed 1 --seconds 10 --trace 0
    python3 repro_bench/run.py --record      # rewrite repro_bench/expected/

Workloads: paper_repro, kset_exhaustive, dac_symmetric, vote_sampling (see
repro_bench/README.md). The script builds the experiment binaries and the
in-process harness with cargo (into $CARGO_TARGET_DIR, default
.bench_build), sets the workload up, measures rounds for --seconds, checks
every result against repro_bench/expected/, prints one line per metric and
then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics and writes the recorded spans to $CARGO_TARGET_DIR/spans/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import tomllib

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(BENCH_DIR, "expected")
HARNESS_MANIFEST = os.path.join("repro_bench", "harness", "Cargo.toml")

WORKLOADS = ("paper_repro", "kset_exhaustive", "dac_symmetric", "vote_sampling")

# The thirteen experiment binaries, in the order EXPERIMENTS.md lists them.
EXPERIMENTS = (
    "t1_pac_properties",
    "t2_dac",
    "t3_impossibility",
    "t4_hierarchy_level",
    "t5_separation",
    "t6_qadri",
    "t7_classic_hierarchy",
    "f1_statespace",
    "f2_adversary_survival",
    "f5_universal",
    "f6_critical_anatomy",
    "f7_sampled_scale",
    "f8_vote_propagation",
)

# F1 prints engine timings and the thread count; those columns (and only
# those) are masked before its stdout is compared.
F1_MASKED_COLUMNS = {"time (ms)", "configs/s", "threads", "raw ms", "reduced ms"}

# Set-ups per run; set-up time is reported as their median.
SETUPS = {"paper_repro": 2, "kset_exhaustive": 3, "dac_symmetric": 5, "vote_sampling": 5}

# What one round's work units are, per workload (end-to-end `work_per_s`).
WORK_UNIT = {
    "paper_repro": "experiments",
    "kset_exhaustive": "configs",
    "dac_symmetric": "orbits",
    "vote_sampling": "sampled runs",
}

# The workload-specific names of the end-to-end metrics, printed beside them.
ALIASES = {
    "paper_repro": {"round_s": "repro_s"},
    "kset_exhaustive": {"work_per_s": "configs_per_s"},
    "dac_symmetric": {"work_per_s": "configs_per_s"},
    "vote_sampling": {"work_per_s": "schedules_per_s"},
}

HARNESS_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here: no result is printed, exit code 1."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def require_checkout():
    for path in ("Cargo.toml", "crates", HARNESS_MANIFEST):
        if not os.path.exists(path):
            raise BenchError(f"{path} not found: run from the root of a full checkout")


def release_profile_flags():
    """The root manifest's [profile.release] scalars, passed on to the
    harness, which is its own workspace and would not inherit them."""
    with open("Cargo.toml", "rb") as f:
        release = tomllib.load(f).get("profile", {}).get("release", {})
    flags = []
    for key, value in sorted(release.items()):
        if isinstance(value, bool):
            flags += ["--config", f"profile.release.{key}={str(value).lower()}"]
        elif isinstance(value, (int, str)):
            flags += ["--config", f"profile.release.{key}={json.dumps(value)}"]
    return flags


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    bins = [arg for e in EXPERIMENTS for arg in ("--bin", f"exp_{e}")]
    commands = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "lbsa-bench", *bins],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", HARNESS_MANIFEST, *release_profile_flags()],
    ]
    for cmd in commands:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def binary(name):
    return os.path.join(target_dir(), "release", name)


# ------------------------------------------------------------ expectations


def load_expected():
    try:
        with open(os.path.join(EXPECTED_DIR, "checks.json")) as f:
            checks = json.load(f)
        stdout = {}
        for e in EXPERIMENTS:
            with open(os.path.join(EXPECTED_DIR, "paper_repro", f"{e}.stdout"), "rb") as f:
                stdout[e] = f.read()
    except OSError as err:
        raise BenchError(f"expected outputs missing: {err}") from err
    return {"checks": checks, "stdout": stdout}


def mask_f1(text):
    """Blanks F1's timing and thread cells; column padding is dropped too,
    since it follows the width of the widest (timing) cell."""
    lines = []
    masked = set()
    for line in text.decode().splitlines():
        if not line.startswith("|"):
            lines.append(line)
            masked = set()
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        if all(set(c) <= {"-"} for c in cells):
            lines.append("|-|")
            continue
        if not masked and any(c in F1_MASKED_COLUMNS for c in cells):
            masked = {i for i, c in enumerate(cells) if c in F1_MASKED_COLUMNS}
            lines.append("|" + "|".join(cells) + "|")
            continue
        lines.append("|" + "|".join("*" if i in masked else c for i, c in enumerate(cells)) + "|")
    return "\n".join(lines)


def stdout_matches(exp_id, got, expected):
    if exp_id == "f1_statespace":
        return mask_f1(got) == mask_f1(expected)
    return got == expected


def judge_check(check, expected_checks):
    """True when one harness result matches its recorded expectation. A
    result with no expectation is wrong, never skipped."""
    want = expected_checks.get(check.get("check"))
    if want is None:
        return False
    got = {k: v for k, v in check.items() if k != "check"}
    return got == want


class Tally:
    """Ops attempted and failed, with the first few failures kept for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)


# ----------------------------------------------------------------- spans


class Spans:
    """Spans recorded by this script around child processes. Same record
    shape as the harness's: name, start, end, parent, op id, work count."""

    def __init__(self):
        self.origin = time.perf_counter_ns()
        self.spans = []
        self.stack = []
        self.op = 0
        self.enabled = False

    def next_op(self):
        self.op += 1

    def begin(self, name):
        if not self.enabled:
            return None
        sid = len(self.spans)
        self.spans.append({
            "span": sid, "op": self.op, "parent": self.stack[-1] if self.stack else None,
            "name": name, "start_ns": time.perf_counter_ns() - self.origin, "end_ns": 0, "count": 0,
        })
        self.stack.append(sid)
        return sid

    def end(self, sid, count=0):
        if sid is None:
            return
        self.spans[sid]["end_ns"] = time.perf_counter_ns() - self.origin
        self.spans[sid]["count"] = count
        self.stack.pop()


def self_times(spans):
    """Per span name: (calls, total seconds, self seconds, work count).
    Self time is a span's duration minus the union of its children."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    out = {}
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        covered, reach = 0, s["start_ns"]
        for start, end in sorted(children.get(s["span"], [])):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        calls, total, own, count = out.get(s["name"], (0, 0, 0, 0))
        out[s["name"]] = (calls + 1, total + dur, own + dur - covered, count + s["count"])
    return {k: (c, t / 1e9, o / 1e9, n) for k, (c, t, o, n) in out.items()}


def write_spans(workload, seed, sources):
    path = os.path.join(target_dir(), "spans", f"{workload}.seed{seed}.jsonl")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        for source, spans in sources:
            for s in spans:
                f.write(json.dumps(dict(s, source=source)) + "\n")
    return path


# ------------------------------------------------------------ paper_repro


def run_experiment(exp_id, env):
    """One op: runs one experiment binary to completion. Returns (seconds,
    stdout, exit status, peak RSS in MiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([binary(f"exp_{exp_id}"), "--no-report"],
                            stdout=subprocess.PIPE, env=env)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return time.perf_counter() - start, out, proc.returncode, usage.ru_maxrss / 1024


def repro_pass(expected, tally, spans=None, threads=None, per_exp=None):
    """One round: every experiment, one child process at a time. Returns
    (pass seconds, peak RSS over the children)."""
    env = dict(os.environ)
    env.pop("LBSA_EXPLORE_THREADS", None)
    if threads is not None:
        env["LBSA_EXPLORE_THREADS"] = str(threads)
    spans = spans or Spans()
    spans.next_op()
    outer = spans.begin("repro.pass" if threads is None else f"repro.pass.threads{threads}")
    start = time.perf_counter()
    peak = 0.0
    for e in EXPERIMENTS:
        sid = spans.begin(f"exp.{e}")
        secs, out, code, rss = run_experiment(e, env)
        spans.end(sid, 1)
        ok = code == 0 and stdout_matches(e, out, expected["stdout"][e])
        tally.record(ok, f"exp_{e}: exit {code}, stdout {'matches' if ok else 'differs'}")
        peak = max(peak, rss)
        if per_exp is not None:
            per_exp.setdefault(e, []).append(secs)
    total = time.perf_counter() - start
    spans.end(outer, len(EXPERIMENTS))
    return total, peak


def paper_repro(seconds, trace, expected, tally, spans):
    setups = []
    for _ in range(SETUPS["paper_repro"]):
        start = time.perf_counter()
        repro_pass(expected, tally)
        setups.append(time.perf_counter() - start)
    rounds = []
    per_exp = {}
    deadline = time.perf_counter() + seconds
    while len(rounds) < 1 + trace or time.perf_counter() < deadline:
        traced = bool(trace) and len(rounds) % 2 == 1
        spans.enabled = traced
        secs, rss = repro_pass(expected, tally, spans, per_exp=per_exp if traced else None)
        rounds.append({"s": secs, "work": len(EXPERIMENTS), "ops": len(EXPERIMENTS),
                       "traced": traced, "peak_rss_mb": rss})
    spans.enabled = False
    return {"setups": setups, "rounds": rounds, "per_exp": per_exp}


# ---------------------------------------------------------------- harness


def harness(args, tally):
    """Runs the in-process harness and returns its records, one per stdout
    line. A timeout, a non-zero exit or a malformed line counts as a
    failed op."""
    cmd = [binary("repro_harness"), *map(str, args)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        tally.record(False, f"{' '.join(cmd)}: timed out")
        return []
    if proc.returncode != 0:
        tally.record(False, f"{' '.join(cmd)}: exit {proc.returncode}")
    records = []
    for line in proc.stdout.decode(errors="replace").splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            tally.record(False, f"{' '.join(cmd)}: malformed output {line!r}")
    return records


def in_process(workload, seed, seconds, setups, trace, expected, tally):
    records = harness(["run", workload, seed, seconds, setups, trace], tally)
    result = {"setups": [], "rounds": [], "spans": []}
    for r in records:
        if "check" in r:
            tally.record(judge_check(r, expected["checks"]), f"{r}")
        elif "setup_s" in r:
            result["setups"].append(r["setup_s"])
        elif "round" in r:
            result["rounds"].append(r)
        elif "span" in r:
            result["spans"].append(r)
    return result


# ---------------------------------------------------------------- metrics


def median(xs):
    xs = [x for x in xs if x is not None]
    return statistics.median(xs) if xs else None


def end_to_end(run):
    rounds = run["rounds"]
    return {
        "round_s": (median([r["s"] for r in rounds]), "s"),
        "work_per_s": (median([r["work"] / r["s"] for r in rounds if r["s"] > 0]), "1/s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in rounds]), "MB"),
        "setup_s": (median(run["setups"]), "s"),
    }


def per_layer(workload, seed, run, expected, tally, spans):
    """The traced run's metrics: tracing overhead on this workload, then
    every layer block, whatever the workload."""
    metrics = {}
    plain = median([r["s"] for r in run["rounds"] if not r["traced"]])
    traced = median([r["s"] for r in run["rounds"] if r["traced"]])
    metrics["trace.untraced_round_s"] = (plain, "s")
    metrics["trace.traced_round_s"] = (traced, "s")
    metrics["trace.overhead"] = (traced / plain if traced and plain else None, "ratio")

    # paper_repro block: per-experiment wall time and the one-thread pass.
    per_exp = run.get("per_exp") or {}
    if not per_exp:
        spans.enabled = True
        repro_pass(expected, tally, spans, per_exp=per_exp)
    spans.enabled = True
    seq_s, _ = repro_pass(expected, tally, spans, threads=1)
    spans.enabled = False
    for e in EXPERIMENTS:
        metrics[f"exp.{e}_s"] = (median(per_exp[e]), "s")
    metrics["explore.repro_seq_s"] = (seq_s, "s")

    records = harness(["layers", seed], tally)
    harness_spans = []
    for r in records:
        if "check" in r:
            tally.record(judge_check(r, expected["checks"]), f"{r}")
        elif "metric" in r:
            metrics[r["metric"]] = (r["value"], r["unit"])
        elif "span" in r:
            harness_spans.append(r)
    path = write_spans(workload, seed, [("run.py", spans.spans),
                                        ("harness.run", run.get("spans", [])),
                                        ("harness.layers", harness_spans)])
    log(f"spans: {path}")
    for source, recorded in (("run.py", spans.spans), ("harness.run", run.get("spans", [])),
                             ("harness.layers", harness_spans)):
        for name, (calls, total, own, count) in sorted(self_times(recorded).items()):
            log(f"  span {source:14s} {name:40s} calls={calls:<5d} total={total:10.4f}s "
                f"self={own:10.4f}s count={count}")
    return metrics


def benchmark_names():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]])


def run(args):
    require_checkout()
    expected = load_expected()
    build()
    tally = Tally()
    spans = Spans()
    if args.workload == "paper_repro":
        result = paper_repro(args.seconds, args.trace, expected, tally, spans)
    else:
        result = in_process(args.workload, args.seed, args.seconds, SETUPS[args.workload],
                            args.trace, expected, tally)
    if not result["rounds"]:
        tally.record(False, "no round completed")
        metrics = {}
    elif args.trace:
        metrics = per_layer(args.workload, args.seed, result, expected, tally, spans)
    else:
        metrics = end_to_end(result)

    e2e, layers = benchmark_names()
    wanted = layers if args.trace else e2e
    for name in wanted:
        if name not in metrics or metrics[name][0] is None:
            tally.record(False, f"metric {name} missing")
    for note in tally.notes:
        log(f"FAILED: {note}")
    aliases = ALIASES[args.workload]
    print(f"workload {args.workload} seed {args.seed}: {len(result['rounds'])} rounds, "
          f"work unit: {WORK_UNIT[args.workload]}")
    for name, (value, unit) in metrics.items():
        alias = f" ({aliases[name]})" if name in aliases else ""
        print(f"  {name}{alias} = {value} {unit}")
    print(f"  fail_ratio = {tally.failed / tally.attempted} "
          f"({tally.failed} of {tally.attempted} ops)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n in wanted if n in metrics and metrics[n][0] is not None},
    }))


# ----------------------------------------------------------------- record


def record():
    """Rewrites the expected outputs from the current build. Every op is
    run twice; results that differ between the two runs abort the record."""
    require_checkout()
    build()
    os.makedirs(os.path.join(EXPECTED_DIR, "paper_repro"), exist_ok=True)
    env = dict(os.environ)
    env.pop("LBSA_EXPLORE_THREADS", None)
    for e in EXPERIMENTS:
        outs = [run_experiment(e, env) for _ in range(2)]
        if any(code != 0 for _, _, code, _ in outs) or not stdout_matches(e, outs[0][1], outs[1][1]):
            raise BenchError(f"exp_{e} is not reproducible")
        with open(os.path.join(EXPECTED_DIR, "paper_repro", f"{e}.stdout"), "wb") as f:
            f.write(outs[0][1])
    checks = {}
    for _ in range(2):
        proc = subprocess.run([binary("repro_harness"), "record"], stdout=subprocess.PIPE, check=True)
        for line in proc.stdout.decode().splitlines():
            r = json.loads(line)
            if "check" not in r:
                continue
            key = r.pop("check")
            if checks.setdefault(key, r) != r:
                raise BenchError(f"{key} is not reproducible: {checks[key]} vs {r}")
    with open(os.path.join(EXPECTED_DIR, "checks.json"), "w") as f:
        json.dump(checks, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"recorded {len(EXPERIMENTS)} experiment outputs and {len(checks)} checks")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite repro_bench/expected/ from the current build")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        if args.record:
            record()
        elif args.workload is None:
            parser.error("--workload is required")
        else:
            run(args)
    except BenchError as err:
        log(f"repro_bench: {err}")
        sys.exit(1)


if __name__ == "__main__":
    main()
