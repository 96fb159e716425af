"""Self-tests of the benchmark at tiny sizes; they run in seconds.

    python3 bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import eulab  # noqa: E402
from eulab.poly import MultiPoly  # noqa: E402

import child  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(workload, seed=0):
    return workloads.jobs(workload, seed, workloads.TINY)


def snapshot():
    """Every attribute the tracer may replace, by identity."""
    mods = {n: dict(vars(m)) for n, m in sys.modules.items()
            if m is not None and (n == "eulab" or n.startswith("eulab."))}
    return mods, dict(vars(MultiPoly))


def traced(workload, seed=0):
    tr = Tracer()
    result = child.run_jobs(tiny(workload, seed), tr)
    return tr, result


class WorkloadTests(unittest.TestCase):
    def test_every_workload_passes_its_oracles_and_digests(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                result = child.run_jobs(tiny(name))
                self.assertEqual(result["failed"], 0, result["problems"])
                self.assertGreaterEqual(result["attempted"], 1)
                for job, digest in result["digests"].items():
                    self.assertEqual(workloads.DIGESTS.get(job), digest, job)

    def test_wrong_answer_counts_as_failed(self):
        jobs = tiny("class-scan")
        bad = jobs[0]._replace(run=lambda: eulab.build(eulab.EnumeratorKind.SE, 3))
        result = child.run_jobs([bad] + jobs[1:])
        self.assertEqual((result["attempted"], result["failed"]), (len(jobs), 1))

    def test_raising_job_counts_as_failed(self):
        jobs = tiny("grammar-deep")
        bad = jobs[0]._replace(run=lambda: eulab.derive(eulab.builtin("two-variable"), "a", -1))
        result = child.run_jobs([bad] + jobs[1:])
        self.assertEqual(result["failed"], 1)
        self.assertIn("raised", result["problems"][0])

    def test_a000522(self):
        self.assertEqual([workloads.a000522(n) for n in range(6)], [1, 2, 5, 16, 65, 326])


class TracerTests(unittest.TestCase):
    def test_originals_restored(self):
        before = snapshot()
        for name in workloads.WORKLOADS:
            traced(name)
        after = snapshot()
        for mod, attrs in before[0].items():
            for key, value in attrs.items():
                self.assertIs(after[0][mod][key], value, f"{mod}.{key}")
        for key, value in before[1].items():
            self.assertIs(after[1][key], value, f"MultiPoly.{key}")

    def test_restored_after_a_failing_job(self):
        before = snapshot()
        jobs = tiny("class-scan")
        bad = jobs[0]._replace(run=lambda: eulab.pair_table(-1, cap=-2))
        child.run_jobs([bad], Tracer())
        self.assertEqual(snapshot()[0]["eulab.bijection"]["pair_table"],
                         before[0]["eulab.bijection"]["pair_table"])

    def test_tracing_keeps_digests(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                _, result = traced(name)
                self.assertEqual(result["digests"], child.run_jobs(tiny(name))["digests"])

    def test_counts_repeat_and_cover_every_metric(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first, second = traced(name)[0].metrics(), traced(name)[0].metrics()
                # trace.* come from the parent, which times two children
                self.assertEqual(set(first) | {"trace.wall_s", "trace.overhead_s"}, names)
                counts = {k: v for k, v in first.items() if v[1] == "count"}
                self.assertEqual(counts, {k: second[k] for k in counts})

    def test_zero_predictions(self):
        m = {name: traced(name)[0].metrics() for name in workloads.WORKLOADS}
        for key, (value, unit) in m["grammar-deep"].items():
            if unit == "count" and key.split(".")[0] in ("perms", "action"):
                self.assertEqual(value, 0, key)
        for key, (value, unit) in m["class-scan"].items():
            if unit == "count" and key.startswith("action."):
                self.assertEqual(value, 0, key)
        self.assertEqual(m["class-scan"]["enumerators.profile_hits"][0], 0)
        self.assertGreater(m["verify-sweep"]["enumerators.profile_hits"][0], 0)
        for workload in m.values():
            for key, (value, _) in workload.items():
                if key.endswith(".errors"):
                    self.assertEqual(value, 0, key)

    def test_spans_nest_under_jobs(self):
        tr, _ = traced("verify-sweep")
        spans = tr.spans
        by_id = {s["id"]: s for s in spans}
        self.assertTrue(any(s["name"] == "checks.verify" for s in spans))
        for s in spans:
            if s["parent"] is not None:
                self.assertEqual(by_id[s["parent"]]["job"], s["job"])
            if s["name"] != "perms.enumerate_class":
                self.assertIsNotNone(s["end"], s)


class RunnerTests(unittest.TestCase):
    def run_bench(self, *args, cwd=ROOT):
        return subprocess.run([sys.executable, "bench/run.py", "--tiny", "--seconds", "1", *args],
                              cwd=cwd, capture_output=True, text=True, timeout=120)

    def test_result_line(self):
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            with self.subTest(trace=trace):
                proc = self.run_bench("--workload", "grammar-deep", "--trace", trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC[kind]})
                for metric in SPEC[kind]:
                    self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = self.run_bench(cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    os.environ["PYTHONHASHSEED"] = "0"
    unittest.main()
