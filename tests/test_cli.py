import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dyadlab

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


def _dash_m(*args):
    """``python -m dyadlab args`` in a new process, dyadlab imported from
    this source tree."""
    src = str(Path(dyadlab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-m", "dyadlab", *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_python_dash_m_runs_the_cli():
    done = _dash_m("factorize", "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: dyadlab")


def test_haar_suite_green(tmp_path):
    assert run("haar-suite", tmp_path) == 0
    report = json.loads((tmp_path / "haar-suite.json").read_text())
    assert all(c["pass"] for c in report["checks"] if c["kind"] == "hard")
    assert report["config"]["seed"] == 0


def test_shift_eval_zero_scale(tmp_path):
    # scale 0 draws no coefficient: the form is 0, and no evidence
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scale": 0.0}))
    assert run("shift-eval", tmp_path, ["--config", str(cfg)]) == 1
    report = json.loads((tmp_path / "shift-eval.json").read_text())
    chk = report["checks"][0]
    assert chk["value_re"] == 0.0 and chk["value_im"] == 0.0
    assert chk["coefficients"] == 0 and chk["pass"] is False


@pytest.mark.parametrize("command, source, statements", [
    ("shift-eval", "empty-shift-file", ["shift-form-oracle-agreement"]),
    # reduce-verify takes no shift_file
    ("reduce-verify", "scale-0", ["shift-rewrite-form-preservation",
                                  "shift-rewrite-normalization"]),
], ids=["shift-eval-empty-shift-file", "reduce-verify-scale-0"])
def test_shift_checks_without_coefficients_fail(tmp_path, capsys, command, source, statements):
    from dyadlab import modelops as mo

    config = {"scale": 0}
    if source == "empty-shift-file":
        spec = mo.make_random_shift(dyadlab.build_lattice(1, 3), 1, (0, 1), {1, 2}, seed=0)
        payload = dict(json.loads(mo.shift_to_json(spec)), coeffs=[])
        (tmp_path / "shift.json").write_text(json.dumps(payload))
        config = {"shift_file": str(tmp_path / "shift.json")}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(command, tmp_path, ["--config", str(cfg)]) == 1
    report = json.loads((tmp_path / f"{command}.json").read_text())
    assert [(c["statement"], c["pass"]) for c in report["checks"]] == \
        [(s, False) for s in statements]
    out = capsys.readouterr().out
    assert all(f"[FAIL] {s}" in out for s in statements)


def test_reduce_verify_trivial_all_cancellative(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 1, "complexity": [1, 1],
                               "cancellative": [1, 2]}))
    assert run("reduce-verify", tmp_path, ["--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "reduce-verify.json").read_text())
    chk = report["checks"][0]
    assert chk["terms"] == 1 and chk["defect"] == 0.0


def test_sparse_verify_without_evidence_fails(tmp_path):
    # depth 1 rejects every random shift, so no trial is evaluated
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 1, "trials": 2, "seed": 1}))
    assert run("sparse-verify", tmp_path, ["--config", str(cfg)]) == 1
    report = json.loads((tmp_path / "sparse-verify.json").read_text())
    assert [c.get("pass") for c in report["checks"]] == [False, False, None]
    assert (tmp_path / "sparse-verify.csv").read_text().splitlines()[1:] == []


def test_sparse_verify_skips_only_the_shapes_the_rules_reject(tmp_path, monkeypatch):
    # a fault inside shift construction is not a rejected shape
    def broken(*args, **kwargs):
        raise ValueError("fault inside shift construction")
    monkeypatch.setattr(cli.mo, "make_random_shift", broken)
    with pytest.raises(ValueError, match="fault inside shift construction"):
        run("sparse-verify", tmp_path)


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


def test_negative_seed_option_fails_at_load(tmp_path):
    # --seed passes the rule of the seed field, as a config file's seed does
    done = _dash_m("haar-suite", "--seed", "-1", "--out", str(tmp_path))
    assert done.returncode == 1
    assert done.stderr == "config error at seed: -1 is less than the minimum of 0\n"
    assert list(tmp_path.iterdir()) == []


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
    # bounds that keep the library from failing deep inside a run
    ("rad-suite", "band", 0),
    ("decouple", "band", 0),
    ("decouple", "p", 0),
    ("leibniz-study", "s", -1),
    ("kernel-const", "s", 1.0),
    ("kernel-const", "s", 3.5),
    ("shift-eval", "cancellative", [3, 3]),
    # rules between fields: n + 1 complexities, slots in 1..n+1, j <= k
    ("shift-eval", "complexity", [1, 0]),
    ("reduce-verify", "complexity", [1, 0]),
    ("shift-eval", "cancellative", [1, 5]),
    ("decouple", "j", 3),
    # d * L above the 62 bits of a cube's heap number
    ("haar-suite", "L", 80),
    ("sparse-verify", "L", 63),
    # 2^21 sign patterns, past randomized.EXHAUSTIVE_LIMIT
    ("rad-suite", "M", 21),
    # the monotonicity check compares each budget with the one before
    ("kernel-const", "budgets", [80, 20]),
    # decouple runs at order l up to the step k (k = 1 by default)
    ("decouple", "l", 2),
    # bands that no value can hold: [1/band, band] is empty below band 1, and
    # a drift is never negative
    ("rad-suite", "band", 0.5),
    ("decouple", "band", 0.5),
    ("leibniz-study", "drift_band", -1),
    ("leibniz-study", "drift_band", 0),
    ("kernel-const", "stability_band", -0.5),
    # numpy's generators reject a negative seed, deep inside a run
    ("haar-suite", "seed", -1),
    ("rad-suite", "seed", -1),
    ("kernel-const", "seed", -1),
    ("decouple", "seed", -1),
])
def test_config_schema_bound_reports_path(tmp_path, command, field, value):
    assert f"config error at {field}" in _config_error(tmp_path, command, field, value)


# lattices too shallow for the default shift complexities, or for any
# decoupling cube of the sublattice with room for l more levels
@pytest.mark.parametrize("command, config", [
    ("shift-eval", {"L": 1}),
    ("reduce-verify", {"L": 1}),
    ("decouple", {"L": 1}),
    ("decouple", {"j": 1, "k": 2, "L": 2}),
])
def test_config_too_shallow_reports_depth(tmp_path, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit, match="config error at L"):
        run(command, tmp_path, ["--config", str(cfg)])


# JSON parses 1e400 to inf, Python's parser also takes NaN, and an integer of
# 400 digits has no float
@pytest.mark.parametrize("command, text, field", [
    ("rad-suite", '{"band": 1e400}', "band"),
    ("leibniz-study", '{"drift_band": NaN}', "drift_band"),
    ("rad-suite", '{"band": 1%s}' % ("0" * 399), "band"),
    ("decouple", '{"p": 1%s}' % ("0" * 399), "p"),
])
def test_config_rejects_non_finite_numbers(tmp_path, command, text, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    with pytest.raises(SystemExit, match=f"^config error at {field}: .* is not a finite number$"):
        run(command, tmp_path, ["--config", str(cfg)])
    assert list(tmp_path.iterdir()) == [cfg]


def _small_configs():
    """The first small config per command of REPORT_SCHEMAS (defined below)."""
    small = {}
    for command, config, _ in REPORT_SCHEMAS:
        small.setdefault(command, config)
    return small


def _integer_cases():
    """(command, path) for every integer field of FIELDS and the first item
    of every integer array, each at the first command that has the field."""
    for field, rule in cli.FIELDS.items():
        if "integer" in (rule["type"], rule.get("items", {}).get("type")):
            command = next(c for c, defaults in cli.DEFAULTS.items() if field in defaults)
            yield command, field if rule["type"] == "integer" else f"{field}/0"


@pytest.mark.parametrize("command, path", list(_integer_cases()))
def test_integral_floats_count_as_integers(tmp_path, command, path):
    # JSON Schema counts 3.0 as an integer; the command must run on it and
    # write the report that 3 gives
    config = {**cli.DEFAULTS[command], **_small_configs()[command]}
    field = path.split("/")[0]
    value = config[field]
    as_float = [float(value[0]), *value[1:]] if "/" in path else float(value)
    written = {}
    for name, written_value in (("int", value), ("float", as_float)):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({**config, field: written_value}))
        assert run(command, tmp_path / name, ["--config", str(cfg)]) == 0
        written[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
    assert written["float"] == written["int"]


def test_integral_float_duplicates_a_cancellative_slot(tmp_path):
    # 1.0 is the integer 1, so the slots repeat
    assert (_config_error(tmp_path, "shift-eval", "cancellative", [1, 1.0])
            == "config error at cancellative: needs two or more distinct slots in 1..3")


def _default(field):
    return next(d[field] for d in cli.DEFAULTS.values() if field in d)


def _keyword_cases():
    """(field, keyword, accepted, rejected, path) for each keyword of each
    rule in FIELDS.  An accepted value sits on an inclusive bound or half a
    step inside an exclusive one; a rejected one sits on an exclusive bound
    or a step past an inclusive one."""
    bad_types = {"integer": [True, "1", 2.5, None, math.nan],
                 "number": [True, "1", None, json.loads("1e400"), math.nan, 10 ** 399],
                 "string": [1, None],
                 "array": ["1", {"0": 1}]}
    for field, rule in cli.FIELDS.items():
        kind = rule["type"]
        ok = "op.json" if kind == "string" else _default(field)
        yield from ((field, "type", ok, bad, field) for bad in bad_types[kind])
        step = 1 if kind == "integer" else 0.5
        for key, inward in (("minimum", 0), ("exclusiveMinimum", step / 2),
                            ("maximum", 0), ("exclusiveMaximum", -step / 2)):
            if key in rule:
                edge = rule[key]
                outward = -step if key == "minimum" else step if key == "maximum" else 0
                yield field, key, edge + inward, edge + outward, field
        if kind == "array":
            low = rule["items"]["minimum"]
            yield field, "items", ok, [ok[0], low - 1], f"{field}/1"
            yield field, "items", ok, [ok[0], True], f"{field}/1"
        if "minItems" in rule:
            n = rule["minItems"]
            yield field, "minItems", ok[:n], ok[:n - 1], field


def _value_id(value):
    """A case's id part for a list or an object, its JSON, which no other
    case changes (pytest would number it by its place in the table), and
    for an integer beyond the float range, its digit count."""
    if isinstance(value, (list, dict)):
        return json.dumps(value, separators=(",", ":"))
    if type(value) is int and value > sys.float_info.max:
        return f"int-of-{len(str(value))}-digits"


@pytest.mark.parametrize("field, keyword, accepted, rejected, path", list(_keyword_cases()),
                         ids=_value_id)
def test_checker_keyword_table(field, keyword, accepted, rejected, path):
    rule = cli.FIELDS[field]
    assert cli._checked(accepted, rule, field) == accepted
    with pytest.raises(SystemExit, match=f"^config error at {path}: "):
        cli._checked(rejected, rule, field)


def test_number_fields_keep_the_type_json_gave():
    # the report's config echoes the file, so {"scale": 1} stays 1, not 1.0
    assert type(cli._checked(1, cli.FIELDS["scale"], "scale")) is int


@pytest.mark.parametrize("text", ["[]", "3", '"L"', "null"])
def test_config_root_must_be_an_object(tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    with pytest.raises(SystemExit, match="^config error at <root>: .* is not of type 'object'"):
        run("haar-suite", tmp_path, ["--config", str(cfg)])


def test_only_kernel_const_caps_s(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s": 3}))
    assert cli.load_config("kernel-const", str(cfg), None)["s"] == 3
    cfg.write_text(json.dumps({"s": 3.5}))
    assert cli.load_config("leibniz-study", str(cfg), None)["s"] == 3.5


def test_equal_budgets_load(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budgets": [20, 20]}))
    assert cli.load_config("kernel-const", str(cfg), None)["budgets"] == [20, 20]


def test_reports_are_strict_json(tmp_path):
    checks = [{"statement": "s", "kind": "hard", "pass": True, "value": float("inf")}]
    with pytest.raises(ValueError):
        cli._finalize("haar-suite", {}, checks, tmp_path, "json")


def test_shift_file_skips_the_rules_between_fields(tmp_path):
    import dyadlab as dl
    from dyadlab import modelops as mo

    spec = mo.make_random_shift(dl.build_lattice(1, 3), 1, (0, 1), {1, 2}, seed=0)
    path = tmp_path / "shift.json"
    path.write_text(mo.shift_to_json(spec))
    cfg = tmp_path / "cfg.json"
    # n and complexity of the config disagree; the file's own ones count
    cfg.write_text(json.dumps({"shift_file": str(path), "n": 3}))
    assert run("shift-eval", tmp_path, ["--config", str(cfg)]) == 0


@pytest.mark.parametrize("tamper, reason", [
    (lambda obj: obj["coeffs"][1].update(K=[9, [0]]), r"field coeffs\[1\]\.K is rejected: "),
    (lambda obj: obj.pop("dim"), "field dim is missing"),
    (None, r"\[Errno 2\] No such file"),
    pytest.param(lambda obj: obj.update(dim=0), "field dim must be a positive integer",
                 id="dim-zero"),
    pytest.param(lambda obj: obj.update(depth=80), "field depth is rejected: dimension \\* depth",
                 id="depth-bound"),
])
def test_shift_file_errors_report_the_field(tmp_path, tamper, reason):
    import dyadlab as dl
    from dyadlab import modelops as mo

    path = tmp_path / "shift.json"
    if tamper is not None:
        spec = mo.make_random_shift(dl.build_lattice(1, 3), 1, (0, 1), {1, 2}, seed=0)
        payload = json.loads(mo.shift_to_json(spec))
        tamper(payload)
        path.write_text(json.dumps(payload))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"shift_file": str(path)}))
    with pytest.raises(SystemExit, match="config error at shift_file: " + reason):
        run("shift-eval", tmp_path, ["--config", str(cfg)])


@pytest.mark.parametrize("text, reason", [
    (None, r"\[Errno 2\] No such file"),
    ('{"L": 2,', "Expecting property name"),
])
def test_unreadable_config_reports_the_root(tmp_path, text, reason):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    with pytest.raises(SystemExit, match="config error at <root>: " + reason):
        run("haar-suite", tmp_path, ["--config", str(cfg)])


@pytest.mark.parametrize("command", ["shift-eval", "haar-suite", "reduce-verify"])
def test_clamp_is_an_unknown_flag(tmp_path, capsys, command):
    # an out-of-bound coefficient is always rejected; there is no flag to project it
    with pytest.raises(SystemExit) as exc:
        run(command, tmp_path, ["--clamp"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --clamp" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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


def test_leibniz_study_on_one_point_fails(tmp_path, capsys):
    # D^s(fg) = 0 on a one-point grid: the reconstruction check has no evidence
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"resolutions": [1], "pairs": 2, "band_limit": 1}))
    assert run("leibniz-study", tmp_path, ["--config", str(cfg)]) == 1
    assert "[FAIL] paraproduct-reconstruction" in capsys.readouterr().out


def test_shift_eval_from_file_with_clamp(tmp_path):
    import dyadlab as dl
    from dyadlab import modelops as mo

    lat = dl.build_lattice(1, 3)
    table = mo.CoeffTable([[0, 0, 0]], [[[0], [0], [0]]], [[1, 1]], [1.0])
    spec = mo.ShiftSpec(lat, 1, (0, 0), {1, 2}, table)
    path = tmp_path / "shift.json"
    path.write_text(mo.shift_to_json(spec))
    # tamper: push the coefficient over the bound
    payload = json.loads(path.read_text())
    payload["coeffs"][0]["re"] = 3.0
    path.write_text(json.dumps(payload))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"shift_file": str(path), "N": 2}))
    with pytest.raises(SystemExit, match=r"config error at shift_file: field coeffs\[0\]\.re"):
        run("shift-eval", tmp_path, ["--config", str(cfg)])
    # and no flag projects the coefficient onto the bound instead
    with pytest.raises(SystemExit) as exc:
        run("shift-eval", tmp_path, ["--config", str(cfg), "--clamp"])
    assert exc.value.code == 2


# (statement, kind, sorted field names) of every record, per command and
# small config: a renamed statement or a dropped field changes the schema
# of the reports that readers of them rely on
REPORT_SCHEMAS = [
    ("haar-suite", {"L": 2}, [
        ("haar-orthonormality", "hard", "kind max_error pass statement tol"),
        ("martingale-telescoping", "hard", "kind max_error pass statement tol"),
        ("projection-algebra", "hard", "kind max_error pass statement tol"),
        ("average-expansion-identity", "hard", "kind max_error pass statement tol"),
        ("serialization-roundtrip", "hard", "kind pass statement")]),
    ("shift-eval", {"L": 3, "blocks": 2, "tuples_per_block": 2}, [
        ("shift-form-oracle-agreement", "hard",
         "coefficients kind max_error pass statement tol value_im value_re")]),
    ("shift-eval", {"L": 3, "blocks": 2, "tuples_per_block": 2, "oracle_cap": 0}, [
        ("shift-form-evaluated", "hard", "coefficients kind pass statement value_im value_re")]),
    ("reduce-verify", {"L": 3, "complexity": [1, 0, 1], "blocks": 2, "tuples_per_block": 2}, [
        ("shift-rewrite-form-preservation", "hard", "defect kind pass statement terms tol"),
        ("shift-rewrite-normalization", "hard", "kind pass statement worst_ratio")]),
    ("sparse-verify", {"L": 4, "trials": 6}, [
        ("stopping-collection-sparsity", "hard", "eta kind pass statement"),
        ("sparse-domination-finite-constants", "hard", "kind pass statement trials"),
        ("constant-growth-fit", "band", "fits kind statement verdict")]),
    ("rad-suite", {"M": 3, "trials": 1}, [
        ("contraction-exact", "hard", "kind pass statement"),
        ("randomized-product-bound-exact", "hard", "kind pass statement"),
        ("moment-comparison-band", "band", "band kind statement verdict"),
        ("conditional-expectation-band", "band", "band kind statement verdict")]),
    ("decouple", {"samples": 100}, [
        ("decoupling-scalar-p2-anchor", "hard", "kind pass ratio statement stderr"),
        ("decoupling-matrix-band", "band", "band kind ratio statement stderr verdict")]),
    ("factorize", {"trials": 1, "budget": 50}, [
        ("positive-factorization-roundtrip", "hard", "kind max_error pass statement tol"),
        ("mixed-factorization-roundtrip", "hard", "kind max_error pass statement tol"),
        ("dual-norm-search-attainment", "hard", "analytic empirical kind pass statement")]),
    ("leibniz-study", {"resolutions": [64, 128], "pairs": 1, "band_limit": 8}, [
        ("paraproduct-reconstruction", "hard", "kind max_defect pass statement tol"),
        ("ratio-refinement-stability", "band", "band drift kind statement verdict")]),
    ("kernel-const", {"budgets": [10, 20]}, [
        ("kernel-constant-monotone-in-budget", "hard", "domain kind pass results statement"),
        ("kernel-constant-stability", "band", "band domain drift kind statement verdict")]),
]


@pytest.mark.parametrize("command, config, expected", REPORT_SCHEMAS)
def test_report_records_keep_their_schema(tmp_path, command, config, expected):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    run(command, tmp_path, ["--config", str(cfg)])
    report = json.loads((tmp_path / f"{command}.json").read_text())
    assert [(c["statement"], c["kind"], " ".join(sorted(c)))
            for c in report["checks"]] == expected
