"""What a command pays for before and after its work: numpy is loaded only
by the commands that fit or simulate, no rimkit module imports it at load
time, and a command that loads the dataset freezes it out of the cyclic
collector only while it runs."""

import ast
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rimkit.cli as cli
from rimkit.cli import main

from conftest import play, summary_doc, wp_doc

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs one command in a fresh interpreter, then reports whether numpy was loaded.
_PROBE = (
    "import sys\n"
    "from rimkit.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('numpy loaded:', 'numpy' in sys.modules)\n"
    "sys.exit(code)\n"
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("startup")
    code = main(["simulate", "--out", str(root / "ds"), "--seed", "5", "--teams", "8",
                 "--referees", "12", "--games-per-season", "160", "--postseason-games", "40",
                 "--fouls-mean", "15"])
    assert code == 0
    raw = root / "raw"
    raw.mkdir()
    doc = summary_doc(plays=(play("p1", 1, foul=True, team="HOU"), play("p2", 2)))
    (raw / "a.summary.json").write_text(json.dumps(doc), encoding="utf-8")
    (raw / "a.wp.json").write_text(json.dumps(wp_doc([("p1", 0.55), ("p2", 0.52)])),
                                   encoding="utf-8")
    return root


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        (["metrics", "--dataset", "ds", "--out", "o/metrics"], False),
        (["refs", "--dataset", "ds", "--out", "o/refs"], False),
        (["outliers", "--dataset", "ds", "--out", "o/outliers"], False),
        (["validate", "--dataset", "ds"], False),
        (["ingest", "--raw-dir", "raw", "--out", "o/ingested"], False),
        (["regress", "--dataset", "ds", "--out", "o/regress"], True),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else str(v),
)
def test_numpy_is_loaded_only_by_a_command_that_fits(corpus, argv, loads_numpy):
    env = {k: v for k, v in os.environ.items() if k != "RIMKIT_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    p = subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=corpus, env=env,
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stdout + p.stderr
    assert p.stdout.splitlines()[-1] == f"numpy loaded: {loads_numpy}"


@pytest.mark.parametrize(
    "argv, spied, code",
    [
        (["metrics", "--out", "o"], "AnalysisContext", 0),
        (["validate"], "validate_game", 0),
        # Fails after the load: the freeze is still undone.
        (["metrics", "--out", "o", "--seasons", "1999-00"], "AnalysisContext", 2),
    ],
    ids=["metrics", "validate", "metrics-no-games-left"],
)
def test_a_command_freezes_its_corpus_and_unfreezes_before_returning(
    corpus, tmp_path, capsys, monkeypatch, argv, spied, code
):
    frozen = []
    original = getattr(cli, spied)

    def spy(*args, **kwargs):
        frozen.append(gc.get_freeze_count())
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, spied, spy)
    argv = [argv[0], "--dataset", str(corpus / "ds"), *argv[1:]]
    argv = [str(tmp_path / a) if a == "o" else a for a in argv]
    assert main(argv) == code
    if code == 0:
        assert frozen and min(frozen) > 0  # the loaded corpus sat in the permanent generation
    assert gc.get_freeze_count() == 0


def _import_time_nodes(nodes):
    """The nodes of a module that run when it is imported: not function
    bodies, and not the body of ``if TYPE_CHECKING:``."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            yield from _import_time_nodes(node.orelse)
            continue
        yield node
        yield from _import_time_nodes(ast.iter_child_nodes(node))


def _numpy_imports(tree: ast.Module) -> list[int]:
    lines = []
    for node in _import_time_nodes(tree.body):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            lines.append(node.lineno)
    return lines


def test_no_rimkit_module_imports_numpy_when_it_is_imported():
    assert _numpy_imports(ast.parse("import os\nfrom numpy import linalg\n")) == [2]
    assert _numpy_imports(ast.parse("class A:\n    import numpy as np\n")) == [2]
    assert _numpy_imports(ast.parse("def f():\n    import numpy as np\n")) == []
    found = {
        path.name: lines
        for path in sorted((SRC / "rimkit").glob("*.py"))
        if (lines := _numpy_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}, f"module-level numpy imports (file: lines): {found}"
