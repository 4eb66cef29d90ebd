"""One benchmark process: set up a workload, time its rounds, check them.

Run by ``run.py`` in a child process with a clean environment::

    python3 perfbench/measure.py --workload fleet-stream --seed 3 \
        --seconds 6 --trace 0 --t0 <time.monotonic() at spawn>

Prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    t0: float | None = None,
    sizes: dict | None = None,
    corrupt=None,
) -> dict:
    """Set up ``workload`` at ``seed``, then run rounds for ``seconds``.

    ``t0`` is the ``time.monotonic()`` reading at process start (set-up
    time counts from it).  ``sizes`` shrinks the workload (self-tests);
    ``corrupt(output)`` may alter a timed round's output before it is
    checked (self-tests of the failure count).  With ``trace``, traced and
    untraced rounds alternate.
    """
    start = time.monotonic() if t0 is None else t0
    if not trace:
        return _measure(workload, seed, seconds, None, start, sizes, corrupt)
    from tracer import Tracer

    # Patch before the workload builds any object.
    with Tracer() as tracer:
        return _measure(workload, seed, seconds, tracer, start, sizes, corrupt)


def _measure(workload, seed, seconds, tracer, start, sizes, corrupt) -> dict:
    from workloads import WORKLOADS

    bench = WORKLOADS[workload](seed, **(sizes or {}))
    warmup = bench.run_round()
    expected = bench.digest(warmup)
    gc.collect()
    setup_s = time.monotonic() - start

    times: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    attempted = failed = 0
    while True:
        gc.collect()
        tracing = tracer is not None and len(traced) <= len(times)
        if tracing:
            tracer.begin_round(len(traced) + len(times))
        began = time.perf_counter()
        output = bench.run_round()
        elapsed = time.perf_counter() - began
        if tracing:
            layers.append(tracer.end_round(elapsed))
            traced.append(elapsed)
        else:
            times.append(elapsed)
        if corrupt is not None:
            output = corrupt(output)
        attempted += bench.items_per_round
        try:
            ok = bench.digest(output) == expected
        except AssertionError:
            ok = False
        if not ok:
            failed += bench.items_per_round
        # Stop when another round of this length would end further past
        # the window than the window has left.
        left = seconds - sum(times) - sum(traced)
        if left < elapsed / 2 and times and (tracer is None or traced):
            break

    attempted += 1
    if not bench.reference_check(warmup):
        failed += 1
    return {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "sim": bench.sim_metrics(warmup),
        "items_per_round": bench.items_per_round,
        "round_s": times,
        "traced_round_s": traced,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), t0=args.t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
