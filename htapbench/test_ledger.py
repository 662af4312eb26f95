#!/usr/bin/env python3
"""Self-tests of the HTAP ledger benchmark at a tiny scale.

    python3 -m unittest discover -s htapbench -p 'test_*.py'

Each workload runs for one second on small tables, untraced and traced. A run
passes its own correctness checks (durability after recovery, DOP-1 versus
governed-DOP results, routed versus base-table results, TPC-C consistency
conditions 1 and 2, and live-phase txn.commits equal to acknowledged
commits), prints exactly the metrics BENCHMARK.json names, with their units,
and a traced run writes its span file. The governed-DOP and routing checks
compare rows returned through the traced client path with rows from a direct
Database::Execute on the quiesced database.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "htapbench", "run.py")
SPANS = os.path.join(ROOT, ".bench_build", "spans")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, cwd=ROOT, run_py=RUN):
    done = subprocess.run(
        [sys.executable, run_py, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None), \
        done.stderr


class LedgerSelfTest(unittest.TestCase):
    spec = load_spec()

    def check_run(self, workload, trace, section):
        code, result, err = run(workload, trace)
        self.assertEqual(code, 0, err[-2000:])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], err[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in self.spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        return result

    def test_workloads_untraced(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                result = self.check_run(w["name"], 0, "end_to_end")
                for name in ("setup_s", "peak_rss_mb", "oltp_p50_us"):
                    self.assertGreater(result["metrics"][name]["value"], 0)

    def test_workloads_traced(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                span_file = os.path.join(SPANS, w["name"] + ".jsonl")
                if os.path.exists(span_file):
                    os.remove(span_file)
                result = self.check_run(w["name"], 1, "per_layer")
                self.assertGreater(result["metrics"]["trace.spans"]["value"],
                                   0)
                with open(span_file) as f:
                    first = json.loads(f.readline())
                self.assertEqual(
                    sorted(first),
                    ["end_ns", "id", "name", "parent", "phase", "request",
                     "start_ns"])

    def test_refuses_without_sources(self):
        # Only BENCHMARK.json and the benchmark directory: the build must
        # fail and no result may be printed.
        scratch = os.path.join(ROOT, ".bench_build", "bare-%d" % os.getpid())
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.makedirs(scratch)
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(os.path.join(ROOT, "htapbench"),
                            os.path.join(scratch, "htapbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result, _ = run("htap_ch", 0, cwd=scratch,
                                  run_py=os.path.join(scratch, "htapbench",
                                                      "run.py"))
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
