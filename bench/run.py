"""Benchmark of the ``acm`` engine: end-to-end figures per workload, or a traced run per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the engine runs from ``src`` as it
is, with no install. Load comes from this one process, which starts fresh
``python3 bench/child.py`` processes one after another, so every request
runs alone in a closed loop. ``ACM_THREADS`` is removed from the children's
environment: they take the default path users get.

Workloads (sizes and the reason for each are in BENCHMARK.json):

  classify-small    one process sends an endless seeded stream of certified
                    small ``classify`` requests through ``delpezzo.cli.main``
  effectivity-deep  one process sends whole passes of certified ``classify``
                    requests on X2..X6 at rising degree, where the
                    line-monoid search dominates
  catalog-cold      fresh processes cycle through ``lines X6``, ``table all``,
                    ``wild X6 --rank 50`` and ``verify --golden golden``

Every output is checked against the benchmark's own lattice model
(``oracle.py``); a wrong output, an unexpected exit code or an exception
counts as a failed request. With ``--trace 0`` the run reports the
end-to-end metrics. ``setup_s`` is the median over the run's processes of
interpreter start plus ``import delpezzo.cli``, and the ``cmd.*_ms`` figures
are the median in-process times of each catalog command in a fresh process;
the classify workloads spend the last quarter of their seconds on catalog
cycles to report them too.
With ``--trace 1`` the run serves the same requests untraced and then
traced, and reports per-layer metrics from the traced half together with
``trace.overhead_pct``, its cost against the untraced half.

On a shared host the speed at which Python runs swings by a quarter or more
within seconds and drifts over minutes. Every child therefore also times a
fixed pure-Python reference loop right after its import and every 0.1 s
around its requests, and each time it reports is multiplied by REFERENCE_MS
over the median of the reference times taken next to it: within 0.25 s of a
request, or the first three for the import. Per-layer times use the run's
median. Times thus read as milliseconds on a host where the loop takes
REFERENCE_MS. The run record keeps the run's median factor.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A record of the run,
with the interpreter, CPU count, source hash and ``ACM_THREADS`` setting,
goes to ``bench/out/``, next to the raw spans of traced runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
WORKLOADS = ("classify-small", "effectivity-deep", "catalog-cold")
SETUP_PROBES = 5  # import-only processes per run, so setup_s is a median on every workload
PROBE_SHARE = 1 / 4  # of a classify workload's seconds spent on catalog cycles, for cmd.*_ms
IMPORT_PROBES = 3  # ``-X importtime`` processes per traced run
CHILD_TIMEOUT_S = 150
#: Milliseconds the reference loop in child.py takes on an uncontended 2-CPU x86-64 host
#: under CPython 3.11, so scaled times read as times on such a host.
REFERENCE_MS = 1.25
INVARIANTS = ("arithmetic_genus", "euler_characteristic")
IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s+(delpezzo\S*)")


class Run:
    """The processes one benchmark run starts, and what they report."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.results: list[dict] = []
        self.spans_dir = OUT / "spans" / f"{workload}-seed{seed}"
        self.env = {k: v for k, v in os.environ.items() if k != "ACM_THREADS"}
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def spawn(self, job: dict, python_flags: tuple[str, ...] = ()) -> dict:
        """Run one fresh child to completion and return its result."""
        if job.get("trace"):
            job["spans_path"] = str(self.spans_dir / f"{len(self.results)}.jsonl")
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, *python_flags, str(BENCH / "child.py")],
                input=json.dumps(job),
                capture_output=True,
                text=True,
                env=self.env,
                cwd=ROOT,
                timeout=CHILD_TIMEOUT_S,
            )
            result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
            problem = f"child exited with {proc.returncode}: {proc.stderr[-500:]}"
        except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            result, proc, problem = None, None, f"child failed: {exc!r}"
        wall_ms = (time.monotonic() - start) * 1000
        if result is None:
            result = {"attempted": 1, "failed": 1, "failures": [problem]}
        else:
            # Times at reference host speed, by the reference samples taken next to them:
            # the first three follow the import, the rest surround the requests.
            reference = result["reference_ms"]
            result["factor"] = REFERENCE_MS / statistics.median(reference[:3])
            result["setup_s"] = (result["ready"] - start) * result["factor"]
            wall_ms *= REFERENCE_MS / statistics.median(reference)
            result["latencies_ms"] = [
                ms * REFERENCE_MS / ref
                for ms, ref in zip(result["latencies_ms"], result["latency_reference_ms"])
            ]
        result.update(job=job, wall_ms=wall_ms, stderr=proc.stderr if proc else "")
        self.results.append(result)
        return result

    def catalog(self, rng: random.Random, *, seconds=None, cycles=None, trace=False) -> list[dict]:
        """Whole cycles of the catalog commands, one fresh process each, until ``seconds``
        have gone by or ``cycles`` cycles are done."""
        out: list[dict] = []
        start = time.monotonic()

        def more() -> bool:
            if cycles is not None:
                return len(out) < cycles * len(inputs.CATALOG)
            return not out or time.monotonic() - start < seconds

        while more():
            for name in inputs.catalog_cycle(rng):
                out.append(self.spawn({"job": "command", "name": name, "trace": trace}))
        return out

    def host_factor(self) -> float:
        """REFERENCE_MS over the median reference time of the whole run."""
        samples = [ms for r in self.results for ms in r.get("reference_ms", [])]
        return REFERENCE_MS / statistics.median(samples)

    def totals(self) -> tuple[int, int, list[str]]:
        attempted = sum(r["attempted"] for r in self.results)
        failed = sum(r["failed"] for r in self.results)
        return attempted, failed, [f for r in self.results for f in r["failures"]]


def classify_job(run: Run, seconds: float, generator_args: dict) -> dict:
    return {
        "job": "classify",
        "workload": run.workload,
        "seed": run.seed,
        "seconds": seconds,
        "generator_args": generator_args,
        "trace": run.trace,
    }


def end_to_end(run: Run, seconds: float, generator_args: dict) -> dict[str, float]:
    """Serve the workload untraced and return its end-to-end metrics."""
    rng = random.Random(f"catalog/{run.seed}")
    for _ in range(SETUP_PROBES):
        run.spawn({"job": "setup"})
    if run.workload == "catalog-cold":
        commands = run.catalog(rng, seconds=seconds)
        latencies = [r["wall_ms"] for r in commands if r["failed"] == 0]
    else:
        worker = run.spawn(classify_job(run, seconds * (1 - PROBE_SHARE), generator_args))
        latencies = worker.get("latencies_ms", [])
        commands = run.catalog(rng, seconds=seconds * PROBE_SHARE)
    if not latencies:
        raise RuntimeError("no request completed")
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in run.results if "setup_s" in r),
        "req_per_s": len(latencies) / (sum(latencies) / 1000),
        "req_p50_ms": statistics.median(latencies),
        "req_p90_ms": percentile(latencies, 90),
        "peak_rss_mb": max(r.get("maxrss_kb", 0) for r in run.results) / 1024,
    }
    for name in inputs.CATALOG:
        times = [ms for r in commands if r["job"]["name"] == name for ms in r.get("latencies_ms", [])]
        if not times:
            raise RuntimeError(f"no {name} command completed")
        metrics[f"cmd.{name}_ms"] = statistics.median(times)
    return metrics


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile (statistics.quantiles, exclusive method); with one value, that value."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[p - 1]


def import_times(run: Run) -> dict[str, float]:
    """Median self time of each ``delpezzo`` module under ``python -X importtime``."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_PROBES):
        probe = run.spawn({"job": "setup"}, ("-X", "importtime"))
        for self_us, module in IMPORT_LINE.findall(probe["stderr"]):
            samples.setdefault(module, []).append(int(self_us) / 1000 * probe.get("factor", 1))
    return {
        f"import.{module.removeprefix('delpezzo.')}_ms": statistics.median(values)
        for module, values in samples.items()
    }


def per_layer(run: Run, seconds: float, generator_args: dict) -> dict[str, float]:
    """Serve the workload untraced, then the same requests traced; per-layer metrics."""
    imports = import_times(run)
    if run.workload == "catalog-cold":
        untraced = run.catalog(random.Random(f"catalog/{run.seed}"), seconds=seconds / 2)
        traced = run.catalog(
            random.Random(f"catalog/{run.seed}"), cycles=len(untraced) // len(inputs.CATALOG), trace=True
        )
        untraced_ms = sum(ms for r in untraced for ms in r.get("latencies_ms", []))
        traced_ms = sum(ms for r in traced for ms in r.get("latencies_ms", []))
        summary = tracing.merge([r["trace"] for r in traced if "trace" in r])
        requests = len(traced)
        lines_cache = [sum(r.get("lines_cache", (0, 0))[k] for r in traced) for k in (0, 1)]
    else:
        worker = run.spawn(classify_job(run, seconds, generator_args))
        if "trace" not in worker:
            raise RuntimeError("the traced worker did not finish")
        latencies, split = worker["latencies_ms"], worker["untraced"]
        untraced_ms, traced_ms = sum(latencies[:split]), sum(latencies[split:])
        summary, requests, lines_cache = worker["trace"], worker["requests"], worker["lines_cache"]
    if not requests:
        raise RuntimeError("no traced request completed")
    spans, counts = summary["spans"], summary["counts"]
    factor = run.host_factor()  # span times at reference host speed

    def ms(name: str, key: str = "ns") -> float:
        return spans.get(name, {}).get(key, 0) / 1e6 / requests * factor

    metrics = {
        "trace.overhead_pct": (traced_ms / untraced_ms - 1) * 100,
        "cli.main.self_ms": ms("cli.main", "self_ns"),
        "picard.DivisorClass.count": counts.get("picard.DivisorClass", 0) / requests,
        "picard.intersect.count": counts.get("picard.intersect", 0) / requests,
        "picard.parse_divisor.ms": ms("picard.parse_divisor"),
        "picard.format_divisor.ms": ms("picard.format_divisor"),
        "picard.invariants.ms": sum(ms(f"picard.{f}", "self_ns") for f in INVARIANTS),
        "geometry.enumerate_lines.hits": lines_cache[0] / requests,
        "geometry.enumerate_lines.misses": lines_cache[1] / requests,
        "acm.enumerate_acm.ms": ms("acm.enumerate_acm"),
        "acm.degree_count_table.ms": ms("acm.degree_count_table"),
        "acm.is_acm_initialized.calls": counts.get("acm.is_acm_initialized", 0) / requests,
        "wild.find_wild_pair.ms": ms("wild.find_wild_pair"),
        "wild.family_plan.ms": ms("wild.family_plan"),
        "goldens.run_verification.self_ms": ms("goldens.run_verification", "self_ns"),
        "goldens.golden_lines.ms": ms("goldens.golden_lines"),
        **imports,
    }
    for bucket, _ in tracing.DEGREE_BUCKETS:
        name = f"geometry.is_effective.{bucket}"
        metrics[f"{name}.calls"] = spans.get(name, {}).get("calls", 0) / requests
        metrics[f"{name}.ms"] = ms(name)
        metrics[f"{name}.max_ms"] = spans.get(name, {}).get("max_ns", 0) / 1e6 * factor
    return metrics


def environment() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},  # this checkout only
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "ACM_THREADS": os.environ.get("ACM_THREADS", "unset"),
        "child_ACM_THREADS": "unset",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/delpezzo/cli.py", "golden", "BENCHMARK.json") if not (ROOT / p).exists()]
    if missing:
        print(f"bench: not a checkout of the repository, missing {missing}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]

    run = Run(args.workload, args.seed, bool(args.trace))
    shutil.rmtree(run.spans_dir, ignore_errors=True)
    run.spans_dir.mkdir(parents=True, exist_ok=True)
    run.spawn({"job": "setup"})  # untimed: writes bytecode caches on a fresh checkout
    run.results.clear()
    measure = per_layer if args.trace else end_to_end
    try:
        values = measure(run, args.seconds, {})
    except RuntimeError as exc:  # nothing left to measure: report what failed instead
        print(f"bench: {exc}", file=sys.stderr)
        for failure in run.totals()[2][:5]:
            print(f"bench: failed: {failure}", file=sys.stderr)
        return 1
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json")
    attempted, failed, failures = run.totals()
    factor = run.host_factor()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    env = environment()
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"{'error_rate':40s} {failed / attempted:14.6g} ({failed}/{attempted})")
    print(f"# times are at reference host speed; the run's median factor is {factor:.4f}")
    for failure in failures[:5]:
        print(f"# failed: {failure}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "env": env,
        "host_factor": factor,
        "failures": failures[:50],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, **result}, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
