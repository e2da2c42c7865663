import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dyadlab"


def _declared_dependencies() -> set[str]:
    """Distribution names in pyproject.toml's [project] dependencies."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.S | re.M).group(1)
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
            for spec in re.findall(r'"([^"]+)"', block)}


def _imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file,
    wherever in the file they appear."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_the_standard_library_and_declared_dependencies():
    # CI installs the declared dependencies alone, so an import of anything
    # else (scipy, say) would pass on a fuller machine and fail only there
    allowed = set(sys.stdlib_module_names) | {"numpy", "dyadlab"}
    assert _declared_dependencies() == {"numpy"}
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    found = {str(path.relative_to(PACKAGE)): sorted(_imported_modules(path) - allowed)
             for path in files}
    assert {name: mods for name, mods in found.items() if mods} == {}


def _package_modules(path: Path) -> set[str]:
    """The dyadlab modules one source file imports (relative imports)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            names |= {node.module} if node.module else {alias.name for alias in node.names}
    return names


def test_value_layers_import_only_the_value_algebra():
    # lattice (grids) and ncspaces (values and their norms) stand alone;
    # leibniz (torus functions) builds on the value algebra only
    assert _package_modules(PACKAGE / "lattice.py") == set()
    assert _package_modules(PACKAGE / "ncspaces.py") == set()
    assert _package_modules(PACKAGE / "leibniz.py") == {"ncspaces"}


def test_sparse_and_randomized_layers_import_only_lattice_and_ncspaces():
    # neither evaluates a model-operator form: sparse domination takes the
    # form's modulus from its caller
    assert _package_modules(PACKAGE / "sparse.py") == {"lattice", "ncspaces"}
    assert _package_modules(PACKAGE / "randomized.py") == {"lattice", "ncspaces"}


def test_package_module_check_sees_both_import_forms(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import numpy as np\nfrom . import lattice as lt\n"
                    "from .ncspaces import chain\n")
    assert _package_modules(path) == {"lattice", "ncspaces"}


def test_import_check_sees_an_undeclared_module(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import numpy as np\nfrom . import lattice\n\n"
                    "def f():\n    from scipy.signal import fftconvolve\n")
    assert _imported_modules(path) == {"numpy", "scipy"}


def test_cli_import_loads_no_schema_validator():
    code = ("import sys, dyadlab.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in {'jsonschema', 'attrs', 'attr', 'referencing', 'rpds'}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _shift_readers(path: Path) -> set[str]:
    """What one source file uses of the lattice shift: ``.shift_cells``,
    and ``roll`` as an attribute (``np.roll``) or a name."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in ("shift_cells", "roll"):
            used.add(name)
    return used


def test_only_lattice_knows_the_lattice_shift():
    # other modules work in aligned cells (GridFunction.aligned), and
    # from_aligned takes them back
    found = {path.name: _shift_readers(path) for path in sorted(PACKAGE.rglob("*.py"))}
    assert found.pop("lattice.py") == {"shift_cells", "roll"}
    assert {name: used for name, used in found.items() if used} == {}


def test_shift_check_sees_attributes_and_names(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from numpy import roll\n\ndef f(lat, a):\n"
                    "    return roll(a, lat.shift_cells)\n")
    assert _shift_readers(path) == {"shift_cells", "roll"}
    path.write_text("import numpy as np\nx = np.roll\n")
    assert _shift_readers(path) == {"roll"}
