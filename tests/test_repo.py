"""Repository hygiene checks: git leftovers and the package's module layout."""

import ast
import re
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)


def test_no_tracked_file_is_ignored():
    """Git holds nothing that .gitignore marks as a build or run leftover."""
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = _git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git work tree")
    listed = _git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == ""


def _imports_outside_util(packages):
    """``module: name`` for each import of one of ``packages``, a module or a
    ``module.name`` in it, by a package module other than util.py."""
    offenders = []
    for path in sorted((ROOT / "src" / "earshot").glob("*.py")):
        if path.name == "util.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            offenders += [f"{path.name}: {n}" for n in names
                          if any(n == p or n.startswith(p + ".") for p in packages)]
    return offenders


def test_only_util_reads_and_writes_csv():
    """The CSV artifact format lives in util.py (csv_text and read_csv): no
    other module imports csv or io, so no second private codec grows back."""
    assert _imports_outside_util(("csv", "io")) == []


def test_only_util_converts_dataclasses():
    """The dataclass codec lives in util.py (plain and build): no other module
    imports asdict or astuple from dataclasses, so no second codec grows back."""
    assert _imports_outside_util(("dataclasses.asdict", "dataclasses.astuple")) == []


def test_only_util_starts_threads():
    """The one thread pool lives in util.py (parallel_map): no other module
    imports threading or concurrent.futures, so no second pool grows back."""
    assert _imports_outside_util(("threading", "concurrent")) == []


def test_only_the_package_root_imports_backend():
    """The package calls _kernels_np directly: no module but __init__.py
    imports _backend, which serves only earshot.BACKEND and the benchmark's
    tracer.  Relative imports count too."""
    offenders = []
    for path in sorted((ROOT / "src" / "earshot").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            if any(n.split(".")[-1] == "_backend" for n in names):
                offenders.append(path.name)
    assert offenders == []


def test_package_root_binds_only_backend_and_version():
    """Every other name is imported from its own module, so the root holds
    no second import path that could drift from it."""
    tree = ast.parse((ROOT / "src" / "earshot" / "__init__.py").read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
    assert bound == {"BACKEND", "__version__"}


def test_readme_python_example_runs(tmp_path, monkeypatch):
    """The README's Python API block runs as written, beside a corpus that
    ``earshot simulate`` would write."""
    from earshot.synth import make_benchmark

    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    make_benchmark(tmp_path / "corpus", per_class=1)
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_layout_names_every_module():
    """The README's Layout block lists every module of the package."""
    layout = re.search(r"^## Layout\n\n```\n(.*?)^```", (ROOT / "README.md").read_text(),
                       re.DOTALL | re.MULTILINE)
    assert layout is not None
    listed = set(re.findall(r"^\s+(\S+\.py)\s", layout.group(1), re.MULTILINE))
    modules = {p.name for p in (ROOT / "src" / "earshot").glob("*.py")} - {"__init__.py"}
    assert sorted(modules - listed) == []
