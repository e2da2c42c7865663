"""Tests of the benchmark's own checks.  Run: python3 -m pytest perfbench"""

from __future__ import annotations

import copy
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import pace  # noqa: E402
import roadmap  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _reference(workload="default-suite", seed=0):
    return checks.load_reference(seed, workload)["reports"]


def _tally(reports, reference):
    tally = checks.Tally()
    checks.check_reports(reports, reference, tally)
    return tally


def test_reference_matches_itself():
    ref = _reference()
    tally = _tally(copy.deepcopy(ref), ref)
    assert tally.attempted > 20 and tally.failed == 0


def test_value_perturbed_by_1e6_is_flagged():
    ref = _reference()
    bad = copy.deepcopy(ref)
    rec = bad["decouple.json"]["checks"][0]
    rec["ratio"] *= 1 + 1e-6
    tally = _tally(bad, ref)
    assert tally.failed == 1
    assert "decoupling-scalar-p2-anchor" in tally.failures[0]


def test_csv_value_perturbed_is_flagged():
    ref = _reference()
    bad = copy.deepcopy(ref)
    row = bad["sparse-verify.csv"][3]
    row["constant"] = repr(float(row["constant"]) * (1 + 1e-6))
    assert _tally(bad, ref).failed == 1


def test_fail_record_is_flagged_with_and_without_reference():
    ref = _reference("dyadic-d2")
    bad = copy.deepcopy(ref)
    bad["stopping-d2.json"]["checks"][0]["pass"] = False
    assert _tally(bad, ref).failed == 1
    assert _tally(bad, None).failed == 1
    assert _tally(copy.deepcopy(ref), None).failed == 0


def test_missing_record_is_flagged():
    ref = _reference("kernel-const")
    bad = copy.deepcopy(ref)
    del bad["kernel-const.json"]["checks"][1]
    tally = _tally(bad, ref)
    assert tally.failed == 1 and "missing" in tally.failures[0]


def test_band_verdict_change_is_flagged():
    ref = _reference("kernel-const")
    bad = copy.deepcopy(ref)
    bad["kernel-const.json"]["checks"][1]["verdict"] = "WARN"
    assert _tally(bad, ref).failed == 1


def test_rounding_residues_compare_absolutely():
    assert checks.same({"max_error": 1.1e-16}, {"max_error": 2.2e-16})
    assert not checks.same({"x": 1.0}, {"x": 1.0 + 1e-6})
    assert checks.same({"x": float("inf")}, {"x": float("inf")})


def test_work_below_definition_fails():
    tally = checks.Tally()
    checks.check_work({"leibniz.kernel.evals": 1999, "leibniz.kernel.samples": 1000},
                      workloads.WORK["kernel-const"], tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_recorded_counts_cover_the_workload_definitions():
    for seed in (0, 1):
        for name, need in workloads.WORK.items():
            counts = checks.load_reference(seed, name)["counts"]
            assert all(counts[k] >= v for k, v in need.items())
    assert checks.load_reference(0, "dyadic-d2")["counts"]["sparse.collection_cubes"] == 7010


def test_sampler_splits_add_up_and_leave_the_probes_out():
    before = signal.getsignal(signal.SIGALRM)
    sampler = pace.Sampler()
    sampler.start()
    try:
        start = time.perf_counter()
        parts = []
        for _ in range(3):
            end = time.perf_counter() + 0.15
            while time.perf_counter() < end:
                pass
            parts.append(sampler.split())
        elapsed = time.perf_counter() - start
    finally:
        sampler.stop()
    assert abs(sum(p[0] for p in parts) - sampler.raw) < 1e-9
    assert abs(sum(p[1] for p in parts) - sampler.scaled) < 1e-9
    assert 0.3 < sampler.raw < elapsed     # probe time is left out of raw
    assert sampler.scaled > 0
    assert signal.getsignal(signal.SIGALRM) == before


def test_self_time_subtracts_children():
    rec = spans.Recorder(timed=True)
    rec.spans = [("a.f", "e", -1, 0.0, 10.0), ("b.g", "e", 0, 1.0, 4.0),
                 ("b.g", "e", 0, 5.0, 6.0), ("c.h", "e", 1, 2.0, 3.0)]
    rows = rec.by_span()
    assert rows[("e", "a.f")]["self_s"] == 6.0
    assert rows[("e", "b.g")] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert rows[("e", "c.h")]["self_s"] == 1.0


def test_spans_rebind_every_namespace_and_restore():
    from dyadlab import lattice, modelops, ncspaces, randomized
    originals = (modelops.eval_shift_form, ncspaces.schatten_norms,
                 randomized.schatten_norms, lattice.HaarPyramid.__init__)
    rec = spans.Recorder(timed=True)
    rec.install()
    try:
        assert randomized.schatten_norms is ncspaces.schatten_norms
        assert ncspaces.schatten_norms is not originals[1]
        lat = lattice.build_lattice(1, 3)
        spec = modelops.make_random_shift(lat, 2, (1, 0, 1), {2, 3}, seed=8)
        fs = [lattice.random_grid_function(lat, N=2, seed=i) for i in range(3)]
        modelops.eval_shift_form(spec, fs)
    finally:
        rec.uninstall()
    assert (modelops.eval_shift_form, ncspaces.schatten_norms,
            randomized.schatten_norms, lattice.HaarPyramid.__init__) == originals
    m = rec.layer_metrics()
    assert m["lattice.HaarPyramid.calls"] == 3
    assert m["lattice.HaarPyramid.cells"] == 3 * lat.num_cells
    assert m["modelops.eval_shift_form.coeffs"] == len(spec.coeffs)
    assert m["modelops.make_random_shift.accept_frac"] == 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "default-suite", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(roadmap.LAYER_UNITS)
    assert [m["unit"] for m in spec["per_layer"]] == list(roadmap.LAYER_UNITS.values())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    printed = run.end_to_end({"scaled_walls": [1.0], "setup_scaled": [0.5],
                             "peak_rss_mb": 40.0})
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(k, v["unit"]) for k, v in printed.items()]
