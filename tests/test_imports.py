"""Every name a liverec module imports is used in that module, every
autodiff op is called from some other liverec module, and ``import
liverec`` loads no scipy subpackage beyond the one it uses.

Package ``__init__`` files are exempt: their imports are re-exports.
"""
import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liverec
from liverec import autodiff

MODULES = sorted(p for p in Path(liverec.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom math import prod, sqrt\nprint(sqrt(os.sep))\n") == ["line 2: prod"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# the tape's types and its sweep, which callers use but do not call as ops
AUTODIFF_NON_OPS = {"Tensor", "Tape", "ShapeError", "backward"}


def autodiff_calls(source: str) -> set[str]:
    """Names of autodiff functions a module calls, as ``alias.op(...)``
    through the name it binds the module to, or as ``op(...)`` after
    importing the name from the module."""
    tree = ast.parse(source)
    aliases, direct = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name.split(".")[-1] == "autodiff"}
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "autodiff":
                direct.update({a.asname or a.name: a.name for a in node.names})
            aliases |= {a.asname or a.name for a in node.names if a.name == "autodiff"}
    called = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name) and fn.value.id in aliases:
            called.add(fn.attr)
        elif isinstance(fn, ast.Name) and fn.id in direct:
            called.add(direct[fn.id])
    return called


def test_call_checker_sees_both_import_forms():
    source = ("from . import autodiff as ad\nfrom .autodiff import lstm as fused, relu\n"
              "ad.add(1, 2)\nfused(x)\nrelu\nad.log\n")
    assert autodiff_calls(source) == {"add", "lstm"}


def test_every_autodiff_op_has_a_caller():
    ops = set(autodiff.__all__) - AUTODIFF_NON_OPS
    called = set().union(*(autodiff_calls(p.read_text(encoding="utf-8")) for p in MODULES if p.name != "autodiff.py"))
    assert sorted(ops - called) == []


# the data, training, scoring and checkpoint entry points, their types and
# the named errors; the layers and the tape are reached through their modules
EXPORTS = {
    "Anchor", "Catalog", "CheckpointError", "EvalReport", "IngestError", "Item", "LabeledPair", "ModelParams",
    "NonFiniteScoreError", "ShapeError", "SyntheticSpec", "TrainConfig", "TrainingDiverged", "UnknownIdError",
    "User", "compute_logloss", "evaluate_pairs", "forward_pair", "generate_synthetic", "ingest_logs",
    "load_checkpoint", "save_checkpoint", "split_dataset", "train", "write_catalog", "write_pairs",
}


def test_the_package_exports_its_entry_points_and_named_errors_only():
    names = {n for n, v in vars(liverec).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert names == EXPORTS
    assert callable(liverec.model.pnn_encode) and callable(liverec.autodiff.backward)


def test_import_loads_only_scipy_sparse():
    # another scipy subpackage adds megabytes of peak RSS and import time to
    # every run: scipy.stats (for rankdata, say) tens of MB and about a
    # second, scipy.special (for expit) about 6 MB and 40 ms
    probe = ("import sys, liverec; print(sorted(n for n, m in sys.modules.items() if n.count('.') == 1"
             " and n.startswith('scipy.') and not n.split('.')[1].startswith('_') and hasattr(m, '__path__')))")
    src = str(Path(liverec.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "['scipy.sparse']"
