"""dyadlab benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload runs in fresh child
processes (perfbench/worker.py), so its peak memory is its own: a few
set-up-only children time start-up, then one child measures passes for
``--seconds``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  ``--workload all`` runs the three workloads one
after another and prefixes each metric with its workload.

``wall_s`` and ``setup_s`` are seconds at the reference machine speed:
each measured time is divided by the slowdown of a fixed probe timed
next to it (perfbench/pace.py).  The measured seconds are printed too.
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
sys.path.insert(0, str(HERE))

import roadmap  # noqa: E402

WORKLOADS = ("kernel-const", "default-suite", "dyadic-d2")
SETUP_RUNS = 7          # set-up-only children per run; the measuring child adds one
CHILD_TIMEOUT_S = 170
# one BLAS thread: deterministic sums for the reference check, and steady
# timings when other processes share the cores
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def spawn(args: list[str]) -> dict:
    env = {**os.environ, **CHILD_ENV}
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 record: bool) -> dict:
    base = ["--workload", name, "--seed", str(seed)]
    setups = [spawn(base + ["--seconds", "0", "--setup-only"])
              for _ in range(SETUP_RUNS)]
    extra = ["--record"] if record else []
    res = spawn(base + ["--seconds", str(seconds), "--trace", str(trace)] + extra)
    setups.append(res)
    res["setup_samples"] = [s["setup_s"] for s in setups]
    res["setup_scaled"] = [s["setup_scaled_s"] for s in setups]
    return res


def end_to_end(res: dict) -> dict:
    return {
        "wall_s": {"value": statistics.median(res["scaled_walls"]), "unit": "s"},
        "setup_s": {"value": statistics.median(res["setup_scaled"]), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(res: dict) -> dict:
    layers = res["layers"]
    out = {}
    for key, unit in roadmap.LAYER_UNITS.items():
        if key == "trace.overhead_s":
            value = statistics.median(res["traced_walls"]) - statistics.median(res["walls"])
        else:
            # counts repeat exactly across passes; times are medians
            value = statistics.median(layer.get(key, 0) for layer in layers)
        out[key] = {"value": value, "unit": unit}
    return out


def describe(name: str, res: dict, metrics: dict) -> None:
    frac = res["failed"] / res["attempted"]
    passes = len(res["walls"]) + len(res["traced_walls"])
    print(f"== {name}: {passes} passes, {res['attempted']} checks, "
          f"check_fail_frac {frac:.6g} ratio")
    print("  pass wall times (s):", " ".join(f"{w:.3f}" for w in res["walls"]),
          "| traced:", " ".join(f"{w:.3f}" for w in res["traced_walls"]))
    print("  at reference speed (s):", " ".join(f"{w:.3f}" for w in res["scaled_walls"]))
    raw_wall = statistics.median(res["walls"])
    print(f"  measured: wall_s {raw_wall:.6g} s, "
          f"setup_s {statistics.median(res['setup_samples']):.6g} s; slowdown "
          f"{raw_wall / statistics.median(res['scaled_walls']):.3f}")
    for exp, walls in res["experiment_walls"].items():
        print(f"  {exp:<24} median {statistics.median(walls):.3f} s of",
              " ".join(f"{w:.3f}" for w in walls))
    for key, m in metrics.items():
        value = m["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else f"{value:,}"
        print(f"  {key:<42} {shown} {m['unit']}")
    for failure in res["failures"]:
        print(f"  FAILED: {failure}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this seed's reports as the reference for later runs")
    args = ap.parse_args()
    if not (Path("src") / "dyadlab" / "__init__.py").is_file():
        sys.exit("run from the root of a dyadlab checkout: ./src/dyadlab is missing")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace, args.record)
        got = per_layer(res) if args.trace else end_to_end(res)
        print("machine:", json.dumps(res["machine"]))
        describe(name, res, got)
        if args.trace:
            tried, missed = roadmap.reconcile(name, args.seed, res, got)
            attempted += tried
            failed += missed
        attempted += res["attempted"]
        failed += res["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in got.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
