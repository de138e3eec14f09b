#!/usr/bin/env python3
"""Paper tables gate: runs the thirteen exp_* binaries with --no-report and
compares each stdout with repro_bench/expected/paper_repro/, using the
repository benchmark's own comparison (F1's timing and thread cells masked,
every other byte exact).

Run from the root of the repo after a release build:

    python3 scripts/paper_tables.py [BIN_DIR]    # default: target/release

Exits 1 and names the differing experiments when any table changed.
"""

import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave nothing behind in repro_bench/
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "repro_bench"))
import run as bench  # noqa: E402  (repro_bench/run.py)


def main():
    bin_dir = sys.argv[1] if len(sys.argv) > 1 else os.path.join("target", "release")
    expected = bench.load_expected()["stdout"]
    env = dict(os.environ)
    env.pop("LBSA_EXPLORE_THREADS", None)
    differing = []
    for e in bench.EXPERIMENTS:
        proc = subprocess.run([os.path.join(bin_dir, f"exp_{e}"), "--no-report"],
                              stdout=subprocess.PIPE, env=env, check=False)
        ok = proc.returncode == 0 and bench.stdout_matches(e, proc.stdout, expected[e])
        print(f"exp_{e}: exit {proc.returncode}, stdout {'matches' if ok else 'differs'}")
        if not ok:
            differing.append(e)
    if differing:
        print(f"paper tables differ from repro_bench/expected: {', '.join(differing)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
