"""Self-test of the benchmark: ``python3 bench/selftest.py`` from the repository root.

Runs every workload at a tiny size in both modes, and shows that wrong
outputs, unexpected exit codes and exceptions are counted as failures.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402  (imports delpezzo.cli)
import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

import delpezzo.cli  # noqa: E402

TINY = {
    "classify-small": {},
    "effectivity-deep": {"sizes": {"X2": (2, 2, (3,)), "X5": (1, 2, (4,)), "X6": (1, 2, (3,))}},
    "catalog-cold": {},
}
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(kind: str) -> set[str]:
    return {m["name"] for m in DECLARED[kind]}


def _rewriting(pattern: str, replace):
    """A CLI entry point whose output is the real one with ``pattern`` rewritten."""

    def main(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = delpezzo.cli.main(argv)
        print(re.sub(pattern, replace, out.getvalue()), end="")
        return code

    return main


class TinyWorkloads(unittest.TestCase):
    def test_every_workload_reports_every_metric_without_failures(self):
        for workload, generator_args in TINY.items():
            for trace, measure, kind in ((0, run.end_to_end, "end_to_end"), (1, run.per_layer, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    bench = run.Run(workload, seed=7, trace=bool(trace))
                    bench.spans_dir.mkdir(parents=True, exist_ok=True)
                    values = measure(bench, 0, generator_args)
                    self.assertEqual(set(values), _names(kind))
                    attempted, failed, failures = bench.totals()
                    self.assertGreater(attempted, 0)
                    self.assertEqual(failed, 0, failures)

    def test_inputs_repeat_for_a_seed_and_carry_certificates(self):
        def small(seed):
            return list(itertools.islice(inputs.classify_small(seed), 200))

        for make in (small, inputs.effectivity_deep):
            first, again, other = make(3), make(3), make(4)
            self.assertEqual(first, again)
            self.assertNotEqual(first, other)
            for req in first:
                self.assertIsNone(oracle.certificate_problem(req.surface, req.coeffs, req.effective, req.cert))

    def test_bare_directory_fails_without_a_result(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "bench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in (ROOT / "bench").glob("*.py"):
            shutil.copy(path, bare / "bench")
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "classify-small", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


class FailuresAreCounted(unittest.TestCase):
    requests = list(itertools.islice(inputs.classify_small(5), 40))

    def serve(self, main, requests) -> child.Loop:
        loop = child.Loop(main)
        loop.serve(requests, count=len(requests))
        return loop

    def test_real_outputs_pass(self):
        loop = self.serve(None, self.requests)
        self.assertEqual((loop.attempted, len(loop.failures)), (40, 0))

    def test_flipped_effectivity_verdict_fails(self):
        flip = _rewriting(
            r'(effective"?: )(true|false)',
            lambda m: m.group(1) + ("false" if m.group(2) == "true" else "true"),
        )
        loop = self.serve(flip, self.requests)
        self.assertEqual(len(loop.failures), loop.attempted)
        self.assertEqual(loop.latencies_ms, [])

    def test_wrong_table_total_fails(self):
        wrong = _rewriting(r'"X6": 127', '"X6": 126')
        self.assertEqual(len(self.serve(wrong, [inputs.CATALOG["table"]]).failures), 1)

    def test_wrong_param_dim_and_line_count_fail(self):
        wrong_dim = _rewriting(r'"param_dim": 73', '"param_dim": 72')
        missing_line = _rewriting(r"G6\t.*\n", "")
        self.assertEqual(len(self.serve(wrong_dim, [inputs.CATALOG["wild"]]).failures), 1)
        self.assertEqual(len(self.serve(missing_line, [inputs.CATALOG["lines"]]).failures), 1)

    def test_unexpected_exit_code_and_exception_fail(self):
        def exits_2(argv):
            return 2

        def raises(argv):
            raise RuntimeError("boom")

        for main in (exits_2, raises):
            loop = self.serve(main, self.requests[:3])
            self.assertEqual(len(loop.failures), 3)

    def test_oracle_checks_reject_wrong_invariants(self):
        req = self.requests[0]
        code, out, _ = child.call(delpezzo.cli.main, req.argv())
        self.assertEqual(req.check(code, out), [])
        wrong = re.sub(r'(degree"?: )(-?\d+)', lambda m: m.group(1) + str(int(m.group(2)) + 1), out)
        self.assertNotEqual(req.check(code, wrong), [])


if __name__ == "__main__":
    unittest.main()
