"""One fresh benchmark process: reads a JSON job on stdin, prints a JSON result on stdout.

Run by ``run.py`` as ``python3 bench/child.py`` with ``src`` on PYTHONPATH.
``delpezzo.cli`` is imported before anything else, so READY marks the end of
interpreter start plus that import, which is what ``setup_s`` measures.

Jobs:
  {"job": "setup"}                      import only
  {"job": "classify", "workload", "seed", "seconds", "generator_args", "trace"}
                                        closed loop of classify requests in this process
  {"job": "command", "name", "trace"}   one catalog command, caches cold

Every result carries the request latencies with the reference times next to
them (see ``Loop``), the failures, and the process's peak RSS.
"""

import time

import delpezzo.cli

READY = time.monotonic()

import bisect  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402
from delpezzo import geometry  # noqa: E402

MAX_REPORTED_FAILURES = 5
REFERENCE_EVERY_S = 0.1
REFERENCE_WINDOW_S = 0.25


def reference_ms() -> float:
    """Milliseconds taken by a fixed pure-Python loop that allocates nothing the cyclic
    collector tracks. Sampled around every request, it gauges how fast the host runs
    Python at that moment; ``run.py`` scales each time by the samples next to it."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(6000):
        x = (i * 2654435761) % 1000003
        table[x & 1023] = x
        total += table.get(i & 1023, 0) ^ x
    return (time.perf_counter() - start) * 1000


def call(main, argv: list[str]) -> tuple[int, str, float]:
    """Run one CLI invocation in this process: (exit code, stdout, milliseconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on usage errors
            code = exc.code
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed * 1000


class Loop:
    """A closed loop: one request at a time, each output checked after it is timed.

    The reference loop runs three times before and after each ``serve`` and once
    every REFERENCE_EVERY_S between requests. Each completed request is paired
    with the median reference time taken within REFERENCE_WINDOW_S of it.
    """

    def __init__(self, main=None):
        self.main = main
        self.latencies_ms: list[float] = []
        self.spans_s: list[tuple[float, float]] = []  # start and end of each completed request
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: list[tuple[float, float]] = []  # (perf_counter, milliseconds)

    def sample_reference(self, reps: int = 1) -> None:
        for _ in range(reps):
            self.reference.append((time.perf_counter(), reference_ms()))

    def serve(self, requests, *, seconds=None, count=None, pass_length=1, tracer=None) -> int:
        """Serve ``requests`` in order: exactly ``count`` of them, or else until ``seconds``
        have gone by at the end of a pass of ``pass_length``. Returns the number served."""
        self.sample_reference(3)
        start = time.perf_counter()
        served = 0
        for req in requests:
            if count is not None:
                if served == count:
                    break
            elif served % pass_length == 0 and served and time.perf_counter() - start >= seconds:
                break
            if tracer is not None:
                tracer.request = self.attempted
            self.attempted += 1
            served += 1
            main = self.main or delpezzo.cli.main  # looked up per call so tracing sees it
            began = time.perf_counter()
            try:
                code, out, ms = call(main, req.argv())
                ended = time.perf_counter()
                problems = req.check(code, out)
            except Exception:  # a crash is a failed request, not the end of the run
                problems = [traceback.format_exc(limit=3)]
            if problems:
                self.failures.append(f"{req.argv()}: {problems[0]}")
            else:
                self.latencies_ms.append(ms)
                self.spans_s.append((began, ended))
            if time.perf_counter() - self.reference[-1][0] >= REFERENCE_EVERY_S:
                self.sample_reference()
        self.sample_reference(3)
        return served

    def latency_reference_ms(self) -> list[float]:
        """For each completed request, the median reference time within REFERENCE_WINDOW_S."""
        times = [t for t, _ in self.reference]
        out = []
        for began, ended in self.spans_s:
            lo = bisect.bisect_left(times, began - REFERENCE_WINDOW_S)
            hi = bisect.bisect_right(times, ended + REFERENCE_WINDOW_S)
            out.append(statistics.median(ms for _, ms in self.reference[lo:hi]))
        return out


def _lines_cache() -> tuple[int, int]:
    info = geometry.enumerate_lines.cache_info()
    return info.hits, info.misses


def run_classify(job: dict) -> dict:
    """classify-small is an endless stream of fresh inputs; effectivity-deep repeats its
    pass, and a run ends only at the end of a pass, so every run has the same mix."""
    if job["workload"] == "classify-small":
        pass_length = 1

        def stream():
            return inputs.classify_small(job["seed"])
    else:
        deep = inputs.effectivity_deep(job["seed"], **job["generator_args"])
        pass_length = len(deep)

        def stream():
            return itertools.cycle(deep)

    loop = Loop()
    if not job["trace"]:
        loop.serve(stream(), seconds=job["seconds"], pass_length=pass_length)
        return _outcome(loop)
    # Untraced requests, then the same requests traced.
    served = loop.serve(stream(), seconds=job["seconds"] / 2, pass_length=pass_length)
    untraced = len(loop.latencies_ms)
    hits, misses = _lines_cache()
    tracer = tracing.Tracer().install()
    try:
        loop.serve(stream(), count=served, tracer=tracer)
    finally:
        tracer.uninstall()
    hits2, misses2 = _lines_cache()
    if job.get("spans_path"):
        tracer.write(job["spans_path"])
    return {
        "untraced": untraced,
        "requests": served,
        "trace": tracer.summary(),
        "lines_cache": [hits2 - hits, misses2 - misses],
        **_outcome(loop),
    }


def run_command(job: dict) -> dict:
    loop = Loop()
    tracer = tracing.Tracer().install() if job["trace"] else None
    try:
        loop.serve([inputs.CATALOG[job["name"]]], count=1, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"lines_cache": list(_lines_cache()), **_outcome(loop)}
    if tracer is not None:
        result["trace"] = tracer.summary()
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    return result


def _outcome(loop: Loop) -> dict:
    return {
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failures": loop.failures[:MAX_REPORTED_FAILURES],
        "latencies_ms": loop.latencies_ms,
        "latency_reference_ms": loop.latency_reference_ms(),
        "reference_ms": [ms for _, ms in loop.reference],
    }


def main() -> None:
    job = json.load(sys.stdin)
    if job["job"] == "classify":
        result = run_classify(job)
    elif job["job"] == "command":
        result = run_command(job)
    else:
        loop = Loop()
        loop.attempted = 1
        loop.sample_reference(3)
        result = _outcome(loop)
    result["ready"] = READY
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main()
