"""One fresh, single-threaded worker process per measurement.

Reads a job (JSON) on stdin and writes its result (JSON) on stdout.
It imports the package from the checkout's ``src``, lets the workload
prepare, then runs a closed loop with one operation in flight, either
for ``seconds`` or for exactly ``count`` operations, with machine-speed
samples (``calibrate.py``) between operations.  With ``setup_only``
it exits where the first operation would start.  Answers are encoded
after the loop, outside the timed region.
"""

import time

STARTED = time.monotonic()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

SPEED_SAMPLES = 5  # kernel samples before and after set-up, to rescale setup_s


def main() -> None:
    t0 = time.monotonic()
    before = [calibrate.sample() for _ in range(SPEED_SAMPLES)]
    kernel_s = time.monotonic() - t0  # not part of set-up
    job = json.load(sys.stdin)
    src = Path(job["src"])
    import_s = None
    tracer = None
    if job["in_process"]:
        t0 = time.monotonic()
        import supportmonoids
        import_s = time.monotonic() - t0
        if Path(supportmonoids.__file__).resolve().parent.parent != src:
            raise SystemExit(f"imported {supportmonoids.__file__}, not the package in {src}")
        if job["trace"]:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()

    from workloads import WORKLOADS
    wl = WORKLOADS[job["workload"]]
    state, items = wl.prepare(job["inputs"], job.get("cli_trace_file"))
    # Keep the collector from rescanning the inputs on every full
    # collection; what the operations allocate is collected as usual.
    gc.freeze()
    first_op = time.monotonic()
    out = {"started": STARTED, "first_op": first_op, "import_s": import_s,
           "python": sys.version.split()[0], "setup_kernel_s": kernel_s,
           "setup_calibration": before + [calibrate.sample() for _ in range(SPEED_SAMPLES)]}
    if job["mode"] == "setup_only":
        json.dump(out, sys.stdout)
        return

    seconds, count = job.get("seconds"), job.get("count")
    step = wl.granularity(job["inputs"])
    run = wl.run
    n_items = len(items)
    latencies, raw, errors, speed = [], [], {}, []
    perf = time.perf_counter
    begin = perf()
    op_time = next_sample = 0.0
    i = 0
    while True:
        if i % step == 0 and (i >= count if count is not None else perf() - begin >= seconds):
            break
        if op_time >= next_sample:
            speed.append((i, wl.speed_sample()))
            next_sample = op_time + calibrate.PERIOD_S
        item = items[i % n_items]
        if tracer is not None:
            tracer.op = i
        t0 = perf()
        try:
            res = run(state, item)
        except Exception as exc:  # a raised or refused operation is a failed one
            res = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        lat = perf() - t0
        op_time += lat
        latencies.append(lat)
        raw.append(res)
        i += 1
    elapsed = perf() - begin
    speed.append((i, wl.speed_sample()))

    who = resource.RUSAGE_SELF if job["in_process"] else resource.RUSAGE_CHILDREN
    out.update(
        elapsed=elapsed,
        latencies=latencies,
        calibration=speed,
        answers=[None if r is None else wl.encode(r) for r in raw],
        errors=errors,
        peak_rss_kb=resource.getrusage(who).ru_maxrss,
    )
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.write_spans(job["spans_file"])
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
