"""Tests of run.py's output checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import tempfile
import unittest
from pathlib import Path

import run


class CheckOutputs(unittest.TestCase):
    def digests_of(self, stdout, csvs):
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            (workdir / "csv").mkdir()
            (workdir / "stdout.txt").write_text(stdout)
            for name, text in csvs.items():
                (workdir / "csv" / name).write_text(text)
            return run.output_digests(workdir)

    def test_matching_outputs_pass(self):
        got = self.digests_of("table\n", {"fig11_fills.csv": "a,b\n"})
        self.assertEqual(run.check_outputs(got, dict(got)), [])

    def test_a_wrong_expected_digest_fails(self):
        got = self.digests_of("table\n", {"fig11_fills.csv": "a,b\n"})
        expected = dict(got, **{"paper_tiny/stdout": "0" * 16})
        self.assertEqual(run.check_outputs(got, expected), ["paper_tiny/stdout"])

    def test_missing_and_unexpected_csvs_fail(self):
        got = self.digests_of("table\n", {"new.csv": "x\n"})
        expected = {"paper_tiny/stdout": got["paper_tiny/stdout"],
                    "paper_tiny/csv/old.csv": "0" * 16,
                    "paper_tiny/1P1L/sgemm": "ignored: a cell digest"}
        self.assertEqual(run.check_outputs(got, expected),
                         ["paper_tiny/csv/new.csv", "paper_tiny/csv/old.csv"])

    def test_recorded_digests_cover_the_outputs(self):
        recorded = run.read_digests()
        self.assertIn("paper_tiny/stdout", recorded)
        self.assertTrue(any(k.startswith("paper_tiny/csv/") for k in recorded))


class Summarise(unittest.TestCase):
    @staticmethod
    def a_pass(a, b, setup, failed=0):
        parts = {"a": {"wall": a, "sim": a / 2, "mem_ops": 10**6},
                 "b": {"wall": b, "sim": b / 2, "mem_ops": 10**6}}
        return {"wall": a + b, "rss_mb": 10.0, "setup": [setup], "attempted": 2,
                "failed": failed, "parts": parts, "probes": [run.REFERENCE_PROBE_NS]}

    def test_each_part_counts_its_fastest_pass(self):
        passes = [self.a_pass(1.0, 4.0, 0.1), self.a_pass(2.0, 3.0, 0.3),
                  self.a_pass(3.0, 5.0, 0.2)]
        passes[0]["setup"].append(0.5)
        m = run.summarise(passes)["metrics"]
        self.assertEqual(m["wall_s"]["value"], 4.0)
        self.assertEqual(m["maccess_per_s"]["value"], 1.0)
        self.assertEqual(m["setup_s"]["value"], 0.2)

    def test_host_times_scale_with_the_median_probe(self):
        passes = [self.a_pass(1.0, 4.0, 0.1), self.a_pass(2.0, 3.0, 0.3),
                  self.a_pass(3.0, 5.0, 0.2)]
        for p, slower in zip(passes, ((2.0,), (1.0, 2.0, 3.0), (1.0,))):
            p["probes"] = [run.REFERENCE_PROBE_NS * x for x in slower]
        m = run.summarise(passes)["metrics"]
        self.assertEqual(m["wall_s"]["value"], 2.0)
        self.assertEqual(m["maccess_per_s"]["value"], 2.0)
        self.assertEqual(m["setup_s"]["value"], 0.05)
        self.assertEqual(m["peak_rss_mb"]["value"], 10.0)

    def test_counts_add_up_over_passes(self):
        r = run.summarise([self.a_pass(1.0, 4.0, 0.1), self.a_pass(2.0, 3.0, 0.3)])
        self.assertEqual((r["correct"], r["attempted"], r["failed"]), (True, 4, 0))

    def test_a_failed_cell_makes_the_run_incorrect(self):
        r = run.summarise([self.a_pass(1.0, 4.0, 0.1), self.a_pass(2.0, 3.0, 0.3, failed=1)])
        self.assertEqual((r["correct"], r["failed"]), (False, 1))
        self.assertEqual(r["metrics"]["cells_ok_frac"]["value"], 0.75)


if __name__ == "__main__":
    unittest.main()
