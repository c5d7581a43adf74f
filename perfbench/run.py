"""Benchmark of the supportmonoids library, measured from outside.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; ``all`` runs every workload in turn
and prints one result line for each.  The harness makes the workload's
inputs from the seed, then starts fresh single-threaded worker
processes (``worker.py``) and waits for them, so it stays idle while
they run.  Afterwards it checks every answer against ``reference.py``.

--trace 0 prints the end-to-end metrics: ``setup_s`` is the median over
five workers of the time from starting the worker process to its first
timed operation; the last of them runs the timed loop for S seconds.
Timings are rescaled to a reference machine speed (``calibrate.py``).
--trace 1 prints the per-layer metrics: one untraced worker runs for
S/2 seconds, then a traced worker repeats exactly the same operations
with spans around the library's public functions (``spans.py``); the
ratio of their rescaled busy times gives ``tracing_overhead_share``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a human-readable copy and
``failed_frac`` go to stderr, and the full record, with the run's
context, to ``.perfbench_out/results/``.  The exit status is 1 when any
answer is wrong, an operation raised or was refused, or an expected
span saw no calls, and 2 when the checkout lacks the package, the
oracles or the fixtures.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REQUIRED = ("src/supportmonoids/__init__.py", "tests/oracles.py",
            "fixtures/expected/cusp.json")
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170  # every run must end well inside 180 s
# Tail percentiles, highest first.  p99 and above are left out: on
# membership they rest on a few systems' slowest queries and move by a
# quarter between seeds.
TAIL_LADDER = (95, 90, 75, 50)
EXCLUDED = (
    "classify on {\"s\": 12} and supports on {\"s\": 24}: they run without end",
    "random systems with s = 5 or more than 2 rows: single draws take up to 34 s, "
    "some are refused at the 10^6-state completion cap, and at s = 4 one in 2000 "
    "three-row draws takes 0.4-1.8 s, moving a run's throughput by a tenth",
)


class RunError(Exception):
    """The benchmark could not measure (not a wrong answer)."""


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(latencies):
    """(percentile, value): the highest ladder percentile with at least
    ten samples beyond it, or the maximum for tiny samples."""
    values = sorted(latencies)
    for p in TAIL_LADDER:
        if len(values) * (100 - p) / 100 >= 10:
            return p, percentile(values, p)
    return 100, values[-1]


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


class Harness:
    def __init__(self, workload, deadline):
        self.wl = workload
        self.deadline = deadline

    def spawn(self, job) -> dict:
        job = {"workload": self.wl.name, "in_process": self.wl.in_process,
               "src": str(ROOT / "src"), "trace": False, **job}
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                                env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(json.dumps(job),
                                        timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RunError(f"worker for {self.wl.name} overran the {RUN_BUDGET_S} s budget")
        if proc.returncode != 0:
            raise RunError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
        res = json.loads(out)
        res["spawned"] = spawned
        return res

    def check(self, inputs, res, tamper=False) -> list:
        """(op, problem) for every failed operation of one worker."""
        from workloads import TAMPERED
        pool = inputs["pool"]
        refs = {}
        failures = []
        for i, answer in enumerate(res["answers"]):
            if answer is None:
                failures.append((i, res["errors"].get(str(i), "no answer")))
                continue
            idx = i % len(pool)
            if idx not in refs:
                refs[idx] = self.wl.reference(inputs, idx)
            ref = refs[idx]
            if tamper and i == 0:
                ref = {key: TAMPERED for key in ref}
            if not self.wl.check(inputs, idx, answer, ref):
                failures.append((i, f"wrong answer for input {idx}"))
        return failures

    def end_to_end(self, inputs, seconds, tamper=False):
        runs = [self.spawn({"mode": "setup_only", "inputs": inputs})
                for _ in range(SETUP_SAMPLES - 1)]
        res = self.spawn({"mode": "timed", "seconds": seconds, "inputs": inputs})
        runs.append(res)
        raw_setups = [r["first_op"] - r["spawned"] - r["setup_kernel_s"] for r in runs]
        setups = [t * calibrate.REFERENCE_S / statistics.median(r["setup_calibration"])
                  for t, r in zip(raw_setups, runs)]
        raw = res["latencies"]
        lat = calibrate.rescale(raw, res["calibration"], self.wl.speed_reference)
        p, tail_s = tail(lat)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "throughput_ops_s": (len(lat) / sum(lat), "1/s"),
            "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "latency_tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
        }
        notes = {"tail_percentile": p, "samples": len(lat), "python": res["python"],
                 "unscaled": {"setup_s": statistics.median(raw_setups),
                              "throughput_ops_s": len(raw) / res["elapsed"],
                              "latency_p50_ms": statistics.median(raw) * 1e3,
                              "latency_tail_ms": tail(raw)[1] * 1e3}}
        return metrics, len(lat), self.check(inputs, res, tamper), notes

    def per_layer(self, inputs, seconds, tamper=False):
        from spans import layer_metrics, merge
        base = self.spawn({"mode": "timed", "seconds": seconds / 2, "inputs": inputs})
        spans_file = OUT / f"spans-{self.wl.name}.jsonl.gz"
        cli_file = OUT / f"spans-{self.wl.name}.jsonl"
        job = {"mode": "count", "count": len(base["answers"]), "trace": True,
               "inputs": inputs, "spans_file": str(spans_file)}
        if not self.wl.in_process:
            cli_file.unlink(missing_ok=True)
            job["cli_trace_file"] = str(cli_file)
        traced = self.spawn(job)
        if self.wl.in_process:
            summary = traced["trace"]
            startup = traced["started"] - traced["spawned"]
            import_s = traced["import_s"]
        else:
            records = [json.loads(line) for line in cli_file.read_text().splitlines()]
            summary = {}
            for record in records:
                merge(summary, record["trace"])
            startup = statistics.median(r["python_startup_s"] for r in records)
            import_s = statistics.median(r["import_s"] for r in records)
        metrics = layer_metrics(summary)
        metrics["cli.import_s"] = (import_s, "s")
        metrics["cli.python_startup_s"] = (startup, "s")
        busy = [sum(calibrate.rescale(r["latencies"], r["calibration"], self.wl.speed_reference))
                for r in (base, traced)]
        metrics["tracing_overhead_share"] = (1 - busy[0] / busy[1], "ratio")
        failures = self.check(inputs, base, tamper) + self.check(inputs, traced)
        for name in self.wl.expected_spans:
            if metrics[f"{name}.calls"][0] == 0:
                failures.append((-1, f"expected span {name} saw no calls"))
        attempted = len(base["answers"]) + len(traced["answers"])
        notes = {"samples": attempted, "python": base["python"]}
        return metrics, attempted, failures, notes


def measure(name, seed, seconds, trace, tamper=False) -> dict:
    """Run one workload; return the record that ``main`` prints."""
    from workloads import WORKLOADS
    wl = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    inputs = wl.make_inputs(random.Random(seed), OUT)
    harness = Harness(wl, time.monotonic() + RUN_BUDGET_S)
    step = harness.per_layer if trace else harness.end_to_end
    metrics, attempted, failures, notes = step(inputs, seconds, tamper)
    return {
        "workload": name, "why": wl.why, "seed": seed, "seconds": seconds,
        "trace": trace, "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
        "excluded_inputs": EXCLUDED, **notes,
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def report(record) -> None:
    w = record["workload"]
    for key, m in record["metrics"].items():
        extra = ""
        if key == "latency_tail_ms":
            extra = f"  (p{record['tail_percentile']:g} of {record['samples']} samples)"
        print(f"{w}  {key} = {m['value']:.6g} {m['unit']}{extra}", file=sys.stderr)
    if not record["trace"]:
        frac = record["failed"] / record["attempted"]
        print(f"{w}  failed_frac = {frac:.6g} ratio", file=sys.stderr)
    for op, problem in record["failures"]:
        print(f"{w}  FAILED op {op}: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: not a supportmonoids checkout, missing {missing}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    status = 0
    for name in names:
        try:
            record = measure(name, args.seed, args.seconds, bool(args.trace))
        except RunError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        path = results / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1))
        report(record)
        print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed",
                                                         "metrics")}))
        status = status or (0 if record["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
