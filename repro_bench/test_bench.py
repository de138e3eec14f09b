"""The benchmark's own tests. Run from the root of a checkout:

    python3 -m unittest discover -s repro_bench -p 'test_*.py'

They build what the benchmark builds (into $CARGO_TARGET_DIR, default
.bench_build) and take about half a minute once built.
"""

import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.require_checkout()
        run.build()
        cls.expected = run.load_expected()

    def harness_checks(self, args):
        tally = run.Tally()
        records = run.harness(args, tally)
        self.assertEqual(tally.failed, 0, tally.notes)
        return [r for r in records if "check" in r]

    def test_wrong_expectation_counts_as_failure(self):
        wrong = copy.deepcopy(self.expected)
        wrong["checks"]["kset"]["transitions"] += 1
        tally = run.Tally()
        run.in_process("kset_exhaustive", 5, 0, 0, 0, wrong, tally)
        self.assertEqual((tally.attempted, tally.failed), (1, 1))

        tally = run.Tally()
        run.in_process("kset_exhaustive", 5, 0, 0, 0, self.expected, tally)
        self.assertEqual((tally.attempted, tally.failed), (1, 0))

    def test_missing_expectation_is_a_failure_not_a_skip(self):
        missing = copy.deepcopy(self.expected)
        del missing["checks"]["kset"]
        tally = run.Tally()
        run.in_process("kset_exhaustive", 5, 0, 0, 0, missing, tally)
        self.assertEqual((tally.attempted, tally.failed), (1, 1))

    def test_wrong_experiment_stdout_counts_as_failure(self):
        wrong = copy.deepcopy(self.expected)
        wrong["stdout"]["t2_dac"] = wrong["stdout"]["t2_dac"].replace(b"4482", b"4483", 1)
        self.assertNotEqual(wrong["stdout"]["t2_dac"], self.expected["stdout"]["t2_dac"])
        tally = run.Tally()
        run.repro_pass(wrong, tally)
        self.assertEqual((tally.attempted, tally.failed), (len(run.EXPERIMENTS), 1))

    def test_f1_mask_hides_only_timing_and_threads(self):
        f1 = self.expected["stdout"]["f1_statespace"].decode()
        row = next(l for l in f1.splitlines() if l.startswith("| consensus race") and "| 7 " in l)
        cells = row.split("|")
        retimed = cells.copy()
        retimed[6] = " 123456.7 "   # time (ms)
        retimed[10] = " 64 "        # threads
        recounted = cells.copy()
        recounted[3] = " 192 "      # configs
        for changed, same in ((retimed, True), (recounted, False)):
            got = f1.replace(row, "|".join(changed)).encode()
            self.assertEqual(run.stdout_matches("f1_statespace", got, f1.encode()), same)

    def test_kset_counts_and_verdict_do_not_depend_on_seed(self):
        for seed in (1, 2, 3):
            (check,) = self.harness_checks(["run", "kset_exhaustive", seed, 0, 0, 0])
            self.assertEqual(check["verdict"], "holds")
            self.assertTrue(run.judge_check(check, self.expected["checks"]), check)

    def test_vote_results_equal_at_one_and_two_threads(self):
        for variant in (0, 5):
            one = self.harness_checks(["sweep", variant, 1])
            two = self.harness_checks(["sweep", variant, 2])
            self.assertEqual(len(one), 18)  # every cell of the F8 grid
            self.assertEqual(one, two)
            for check in one:
                self.assertTrue(run.judge_check(check, self.expected["checks"]), check)


if __name__ == "__main__":
    unittest.main()
