"""What a command pays for before and after its work: numpy is loaded only
by the commands that fit or simulate, no rimkit module imports it at load
time, ``import rimkit`` binds only its version and loads no submodule,
the raw-data commands load none of the analysis layers, and a command
leaves the cyclic collector as it found it."""

import ast
import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rimkit.cli import main

from conftest import play, summary_doc, wp_doc

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs one command in a fresh interpreter, then reports whether numpy was
# loaded and, on its last line, which rimkit modules were.
_PROBE = (
    "import sys\n"
    "from rimkit.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('numpy loaded:', 'numpy' in sys.modules)\n"
    "print(' '.join(sorted(m for m in sys.modules if m.startswith('rimkit'))))\n"
    "sys.exit(code)\n"
)


def _probe(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "RIMKIT_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


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
    p = _probe(corpus, "-c", _PROBE, *argv)
    assert p.returncode == 0, p.stdout + p.stderr
    assert p.stdout.splitlines()[-2] == f"numpy loaded: {loads_numpy}"


# What the raw-data commands run: the CLI and its settings, ingest and the
# record model, and ``synth``, from which the parser builds ``simulate``'s flags.
_RAW_COMMAND_MODULES = "rimkit rimkit.cli rimkit.config rimkit.ingest rimkit.model rimkit.synth"


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "--raw-dir", "raw", "--out", "o/raw-ingested"],
        ["validate", "--dataset", "ds"],
        ["simulate", "--out", "o/simulated", "--teams", "4", "--referees", "4",
         "--games-per-season", "6"],
    ],
    ids=lambda v: v[0],
)
def test_a_raw_data_command_loads_no_analysis_layer(corpus, argv):
    p = _probe(corpus, "-c", _PROBE, *argv)
    assert p.returncode == 0, p.stdout + p.stderr
    assert p.stdout.splitlines()[-1] == _RAW_COMMAND_MODULES  # no figures, no inference


def test_import_rimkit_binds_only_its_version_and_loads_no_submodule(tmp_path):
    script = (
        "import sys\n"
        "import rimkit\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('rimkit.'))\n"
        "print(loaded())\n"
        "print(sorted(n for n in vars(rimkit) if not n.startswith('_')), rimkit.__version__)\n"
        "from rimkit.ingest import load_dataset\n"
        "print(loaded())\n"
    )
    p = _probe(tmp_path, "-c", script)
    assert p.returncode == 0, p.stdout + p.stderr
    assert p.stdout.splitlines() == [
        "[]",
        "[] 0.1.0",
        "['rimkit.ingest', 'rimkit.model']",
    ]


@pytest.mark.parametrize(
    "argv, spied, code",
    [
        (["metrics", "--out", "o"], "figures.AnalysisContext", 0),
        (["validate"], "cli.validate_game", 0),
        (["ingest", "--raw-dir", "raw", "--out", "o"], "cli.write_dataset", 0),
        # Fails after the load.
        (["metrics", "--out", "o", "--seasons", "1999-00"], "figures.AnalysisContext", 2),
    ],
    ids=["metrics", "validate", "ingest", "metrics-no-games-left"],
)
def test_a_command_leaves_the_collector_as_it_found_it(
    corpus, tmp_path, capsys, monkeypatch, argv, spied, code
):
    # The loaded corpus is left to the collector: nothing is frozen out of
    # it, and a pause taken while feeds are ingested ends with the ingest.
    seen = []
    module_name, _, name = spied.partition(".")
    module = importlib.import_module(f"rimkit.{module_name}")
    original = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append((gc.isenabled(), gc.get_freeze_count()))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    argv = [argv[0], "--dataset", str(corpus / "ds"), *argv[1:]]
    argv = [str(tmp_path / a) if a == "o" else str(corpus / a) if a == "raw" else a
            for a in argv]
    assert gc.isenabled() and gc.get_freeze_count() == 0
    assert main(argv) == code
    if code == 0:
        assert seen and set(seen) == {(True, 0)}  # the work after the load ran so too
    assert gc.isenabled() and gc.get_freeze_count() == 0


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
