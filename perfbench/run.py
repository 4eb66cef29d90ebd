"""The repository benchmark: one command, two workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-runtime --seed 0 --seconds 36 --trace 0

Workloads: ``paper-runtime`` and ``fleet-stream`` (see ``workloads.py``
and ``README.md``).  With ``--trace 0`` the last line
of output is a JSON object carrying the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run.  Earlier
lines are a human-readable summary.

The measuring time is split over :data:`PROCESSES` fresh child processes
run one after another.  Each sets up the workload (one set-up sample)
and runs its share of the rounds; round times are pooled, so the median
spans separate processes and moments of the host.  Every child gets a
clean environment: no ``REPRO_SWEEP_*``, ``REPRO_STORE_*`` or
``REPRO_CHECK`` settings and a pinned ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROCESSES = 2
#: Per-child limit, so that a whole run ends within 180 s.
CHILD_TIMEOUT_S = 80
CLEARED_PREFIXES = ("REPRO_SWEEP_", "REPRO_STORE_")

UNITS = {
    "setup_s": "s",
    "round_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_makespan_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name == "host.load_1m":
        return "load"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us_per_event"):
        return "us"
    if name.endswith(("_ratio", "_per_event", "coverage")):
        return "ratio"
    return "count"


def child_env() -> dict[str, str]:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(CLEARED_PREFIXES) and key != "REPRO_CHECK"
    }
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args: argparse.Namespace) -> dict:
    command = [
        sys.executable,
        str(HERE / "measure.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds / PROCESSES),
        "--trace", str(args.trace),
        "--t0", repr(time.monotonic()),
    ]
    proc = subprocess.run(
        command,
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark child failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def combine(children: list[dict]) -> dict:
    """Pool the children's rounds and counts into one run result.

    The children must agree on the simulated figures; a disagreement
    counts as one more failed operation.
    """
    first = children[0]
    agree = all(child["sim"] == first["sim"] for child in children)
    return {
        "setups": [child["setup_s"] for child in children],
        "attempted": sum(child["attempted"] for child in children) + 1,
        "failed": sum(child["failed"] for child in children) + (not agree),
        "sim": first["sim"],
        "items_per_round": first["items_per_round"],
        "round_s": [t for child in children for t in child["round_s"]],
        "traced_round_s": [t for child in children for t in child["traced_round_s"]],
        "layers": [layer for child in children for layer in child["layers"]],
        "peak_rss_mb": max(child["peak_rss_mb"] for child in children),
    }


def round_tail(values: list[float]) -> float:
    """The highest value with at least ten values beyond it; the median
    when there are too few to resolve a tail."""
    ordered = sorted(values)
    if len(ordered) > 10:
        return ordered[len(ordered) - 11]
    return statistics.median(ordered)


def end_to_end(run: dict) -> dict[str, float]:
    times = run["round_s"]
    return {
        "setup_s": statistics.median(run["setups"]),
        "round_p50_ms": statistics.median(times) * 1e3,
        "throughput_per_s": run["items_per_round"] * len(times) / sum(times),
        "peak_rss_mb": run["peak_rss_mb"],
        "sim_makespan_s": run["sim"]["sim_makespan_s"],
    }


def per_layer(run: dict) -> dict[str, float]:
    """Median of each layer figure over the traced rounds, plus ratios."""
    layers = run["layers"]
    out = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
    requested = out["fleet.estimates_requested"]
    events = out["fleet.events"]
    out["fleet.estimate_memo_ratio"] = (
        1 - out["fleet.estimates_computed"] / requested if requested else 0.0
    )
    out["fleet.rounds_per_event"] = out["fleet.rounds"] / events if events else 0.0
    out["fleet.loop_us_per_event"] = out["fleet.loop_ms"] * 1e3 / events if events else 0.0
    traced_ms = statistics.median(run["traced_round_s"]) * 1e3
    untraced_ms = statistics.median(run["round_s"]) * 1e3
    out["bench.rounds"] = len(run["traced_round_s"]) + len(run["round_s"])
    out["bench.traced_round_ms"] = traced_ms
    out["bench.round_tail_ms"] = round_tail(run["round_s"]) * 1e3
    out["bench.trace_overhead_ratio"] = traced_ms / untraced_ms - 1
    out["host.load_1m"] = os.getloadavg()[0]
    out["host.cores"] = os.cpu_count()
    return out


def metrics_from(run: dict, *, trace: bool) -> dict:
    """The result line's ``metrics``: per-layer with ``trace``, else end-to-end."""
    if trace:
        return {
            name: {"value": value, "unit": per_layer_unit(name)}
            for name, value in sorted(per_layer(run).items())
        }
    values = end_to_end(run)
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        parser.error(f"no repro package under {ROOT / 'src'}")

    run = combine([run_child(args) for _ in range(PROCESSES)])
    metrics = metrics_from(run, trace=bool(args.trace))
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} cores={os.cpu_count()} "
        f"load_1m={os.getloadavg()[0]:.2f} setups_s={[round(s, 3) for s in run['setups']]}"
    )
    print("round_ms: " + " ".join(f"{t * 1e3:.0f}" for t in run["round_s"]))
    print("simulated: " + ", ".join(f"{k}={v:.6g}" for k, v in run["sim"].items()))
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": run["failed"] == 0,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
