import json

import pytest

from dyadlab import cli


def run(cmd, tmp_path, extra=None):
    argv = [cmd, "--out", str(tmp_path), "--format", "both"]
    if extra:
        argv += extra
    return cli.main(argv)


def test_help_lists_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for cmd in ("haar-suite", "sparse-verify", "leibniz-study"):
        assert cmd in out


def test_haar_suite_green(tmp_path):
    assert run("haar-suite", tmp_path) == 0
    report = json.loads((tmp_path / "haar-suite.json").read_text())
    assert all(c["pass"] for c in report["checks"] if c["kind"] == "hard")
    assert report["config"]["seed"] == 0


def test_shift_eval_zero_scale(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scale": 0.0}))
    assert run("shift-eval", tmp_path, ["--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "shift-eval.json").read_text())
    chk = report["checks"][0]
    assert chk["value_re"] == 0.0 and chk["value_im"] == 0.0


def test_reduce_verify_trivial_all_cancellative(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 1, "complexity": [1, 1],
                               "cancellative": [1, 2]}))
    assert run("reduce-verify", tmp_path, ["--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "reduce-verify.json").read_text())
    chk = report["checks"][0]
    assert chk["terms"] == 1 and chk["defect"] == 0.0


def test_sparse_verify_writes_rows(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 12, "L": 4}))
    assert run("sparse-verify", tmp_path, ["--config", str(cfg)]) == 0
    rows = (tmp_path / "sparse-verify.csv").read_text().splitlines()
    assert rows[0] == "trial,n,kappa,N,L,seed,lhs,rhs,constant"
    assert len(rows) > 5


def test_reports_are_reproducible(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run("rad-suite", a, ["--seed", "5"]) == 0
    assert run("rad-suite", b, ["--seed", "5"]) == 0
    assert (a / "rad-suite.json").read_bytes() == (b / "rad-suite.json").read_bytes()
    assert (a / "rad-suite.csv").read_bytes() == (b / "rad-suite.csv").read_bytes()


def test_seed_changes_report(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run("shift-eval", a, ["--seed", "1"])
    run("shift-eval", b, ["--seed", "2"])
    assert (a / "shift-eval.json").read_bytes() != (b / "shift-eval.json").read_bytes()


def _config_error(tmp_path, command, field, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: value}))
    with pytest.raises(SystemExit) as exc:
        run(command, tmp_path, ["--config", str(cfg)])
    return str(exc.value)


def test_config_schema_violation_reports_path(tmp_path):
    assert "config error at L" in _config_error(tmp_path, "haar-suite", "L", "four")


# one case per bounded field: sizes and counts that would leave a check
# without evidence fail at load time
@pytest.mark.parametrize("command, field, value", [
    ("haar-suite", "d", 0),
    ("haar-suite", "L", 0),
    ("haar-suite", "N", 0),
    ("shift-eval", "n", 0),
    ("shift-eval", "complexity", [1, -1, 1]),
    ("shift-eval", "cancellative", [0, 3]),
    ("shift-eval", "scale", 1.5),
    ("shift-eval", "blocks", 0),
    ("shift-eval", "tuples_per_block", 0),
    ("shift-eval", "oracle_cap", -1),
    ("sparse-verify", "trials", 0),
    ("sparse-verify", "eta", 1.0),
    ("sparse-verify", "max_n", 0),
    ("sparse-verify", "max_kappa", -1),
    ("rad-suite", "M", 0),
    ("decouple", "samples", 1),
    ("decouple", "k", -1),
    ("decouple", "j", -1),
    ("decouple", "l", -1),
    ("factorize", "budget", 0),
    ("leibniz-study", "resolutions", []),
    ("leibniz-study", "pairs", 0),
    ("leibniz-study", "band_limit", 0),
    ("kernel-const", "budgets", []),
    ("kernel-const", "budgets", [200]),
])
def test_config_schema_bound_reports_path(tmp_path, command, field, value):
    assert f"config error at {field}" in _config_error(tmp_path, command, field, value)


def test_unknown_field_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(SystemExit):
        run("haar-suite", tmp_path, ["--config", str(cfg)])


def test_decouple_green(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 2000}))
    assert run("decouple", tmp_path, ["--config", str(cfg)]) == 0


def test_factorize_green(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 5, "budget": 500}))
    assert run("factorize", tmp_path, ["--config", str(cfg)]) == 0


def test_leibniz_study_csv(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"resolutions": [64, 128], "pairs": 3,
                               "band_limit": 8}))
    assert run("leibniz-study", tmp_path, ["--config", str(cfg)]) == 0
    rows = (tmp_path / "leibniz-study.csv").read_text().splitlines()
    assert rows[0] == "R,max_ratio,mean_ratio"
    assert len(rows) == 3


def test_shift_eval_from_file_with_clamp(tmp_path):
    import dyadlab as dl
    from dyadlab import modelops as mo

    lat = dl.build_lattice(1, 3)
    table = mo.CoeffTable([[0, 0, 0]], [[[0], [0], [0]]], [[1, 1]], [2.0])
    spec = mo.ShiftSpec(lat, 1, (0, 0), {1, 2}, table, clamp=True)
    path = tmp_path / "shift.json"
    path.write_text(mo.shift_to_json(spec))
    # tamper: push the coefficient over the bound
    payload = json.loads(path.read_text())
    payload["coeffs"][0]["re"] = 3.0
    path.write_text(json.dumps(payload))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"shift_file": str(path), "N": 2}))
    # without clamping the load fails
    with pytest.raises(ValueError):
        run("shift-eval", tmp_path, ["--config", str(cfg)])
    assert run("shift-eval", tmp_path, ["--config", str(cfg), "--clamp"]) == 0
