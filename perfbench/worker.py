"""One workload in one process: set up, then run passes until the time is up.

Started by run.py from the root of a checkout.  Prints one JSON line:
the set-up time, the wall time of every pass (measured, and scaled to
the reference machine speed by ``pace``), the peak resident memory after
the first pass, the check tally and, when traced, the per-layer metrics
of each traced pass.  Untraced passes keep only the work-count counters;
with ``--trace 1`` untraced and traced passes alternate, so their
difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import dyadlab  # noqa: E402

if Path(dyadlab.__file__).resolve().parent != (ROOT / "src" / "dyadlab").resolve():
    sys.exit(f"dyadlab imported from {dyadlab.__file__}, not from ./src")

import checks  # noqa: E402
import machine  # noqa: E402
import pace  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

OUT = Path(".perfbench_out")


def run_pass(workload, inputs, recorder, exp_walls):
    """Run the experiments once.  An untraced pass is timed by a
    ``pace.Sampler``, so its wall time leaves the probes out and has a
    scaled twin; a traced pass is timed by the clock alone."""
    reports = inputs.out / "reports"
    shutil.rmtree(reports)
    reports.mkdir()
    sampler = None if recorder.timed else pace.Sampler()
    wall = scaled = 0.0
    recorder.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if sampler:
                sampler.start()
            for exp in workload.experiments:
                recorder.experiment = exp.id
                t = time.perf_counter()
                exp.run(inputs)
                if sampler:
                    dt, ds = sampler.split()
                else:
                    dt = ds = time.perf_counter() - t
                wall += dt
                scaled += ds
                exp_walls.setdefault(exp.id, []).append(dt)
    finally:
        if sampler:
            sampler.stop()
        recorder.uninstall()
    return wall, scaled, checks.read_reports(reports)


def check_pass(name, seed, reports, counters, tally):
    reference = checks.load_reference(seed, name)
    counts = {k: v for k, v in counters.items() if k in spans.GUARD_COUNTS}
    if "sparse-verify.csv" in reports:
        counts["cli.sparse_verify_rows"] = len(reports["sparse-verify.csv"])
    expected = dict(workloads.WORK[name])
    if reference is not None:
        expected.update(reference["counts"])
    checks.check_reports(reports, None if reference is None else reference["reports"], tally)
    checks.check_work(counts, expected, tally)
    return counts


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="write this seed's reports and counts as the reference")
    args = ap.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.prepare(workload, args.seed, OUT / args.workload)
    setup_s = time.monotonic() - args.spawned_at
    setup_scaled = setup_s / pace.slowdown(40)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_scaled_s": setup_scaled}))
        return 0

    tally = checks.Tally()
    walls = {False: [], True: []}
    scaled = []
    exp_walls = {False: {}, True: {}}
    layers = []
    peak_rss_mb = None
    span_rows = None
    traced = False
    record = args.record
    deadline = time.perf_counter() + args.seconds
    while True:
        recorder = spans.Recorder(timed=traced)
        wall, wall_scaled, reports = run_pass(workload, inputs, recorder,
                                              exp_walls[traced])
        walls[traced].append(wall)
        if not traced:
            scaled.append(wall_scaled)
        if peak_rss_mb is None:
            # after one pass: later passes raise the peak by chance (up to
            # 18 % on dyadic-d2), so a peak over all passes would depend
            # on how many fit in the run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        counts = check_pass(args.workload, args.seed, reports, recorder.counters, tally)
        if traced:
            layers.append(recorder.layer_metrics())
            span_rows = [{"experiment": exp, "span": name, **row}
                         for (exp, name), row in sorted(recorder.by_span().items())]
        if record and not traced:
            path = checks.reference_path(args.seed, args.workload)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({"reports": reports, "counts": counts},
                                       sort_keys=True, indent=1) + "\n")
            record = False
        if args.trace:
            traced = not traced
        if time.perf_counter() >= deadline and (not args.trace or walls[True]):
            break
    if span_rows is not None:
        (inputs.out / "spans.json").write_text(json.dumps(span_rows, indent=1) + "\n")
    print(json.dumps({
        "setup_s": setup_s,
        "setup_scaled_s": setup_scaled,
        "walls": walls[False],
        "traced_walls": walls[True],
        "scaled_walls": scaled,
        "experiment_walls": exp_walls[False],
        "peak_rss_mb": peak_rss_mb,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures[:20],
        "layers": layers,
        "spans": span_rows or [],
        "machine": machine.fingerprint(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
