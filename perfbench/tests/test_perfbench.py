"""The benchmark's own tests, on tiny workloads that run in seconds.

    python3 -m pytest -q perfbench/tests
"""
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import harness
import liverec
import tracing
from conftest import BENCH, ROOT
from workloads import WORKLOADS, set_up

TINY = dict(train_pairs=60, test_pairs=60, num_users=30, num_anchors=8, num_items=40,
            num_categories=4, history_len_range=(2, 6), min_score_samples=20)


def tiny(name):
    return replace(WORKLOADS[name], **TINY)


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_named_metric_with_its_unit(name, trace, tmp_path):
    info, result = harness.run(tiny(name), seed=5, seconds=0.5, trace=trace, workdir=str(tmp_path))
    listed = benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert info["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    json.dumps(result, allow_nan=False)


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in benchmark_json()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", ["short-hist", "long-coret"])
def test_child_spans_fit_inside_their_phase(name, tmp_path):
    workload = tiny(name)
    data, _ = set_up(workload, 2, str(tmp_path))
    session = harness.Session(workload, 2, data, harness.Checks())
    phases = {
        "train": session.train_rep,
        "eval": session.eval_rep,
        "score": lambda: [session.score(p) for p in data.test[:10]],
    }
    for phase, fn in phases.items():
        _, trace = tracing.traced_call(fn)
        assert 0.0 < trace.child_s <= trace.wall_s, phase
        assert sum(trace.self_s.values()) <= trace.child_s, phase
        assert min(trace.self_s.values()) >= 0.0, phase
    assert session.checks.correct


def _generated_bytes(seed, workdir):
    set_up(tiny("long-coret"), seed, str(workdir))
    return [(workdir / f).read_bytes() for f in ("catalog.jsonl", "pairs.jsonl")]


def test_generation_is_byte_identical_per_seed(tmp_path):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = _generated_bytes(7, dirs[0])
    assert _generated_bytes(7, dirs[1]) == first
    other = _generated_bytes(8, dirs[2])
    assert other[0] != first[0] and other[1] != first[1]


def _boundaries():
    return {(m, a): getattr(importlib.import_module(m), a, None) for _, m, a, _ in tracing.BOUNDARIES}


def test_missing_boundary_fails_loudly_and_restores_the_rest(monkeypatch):
    monkeypatch.delattr(liverec.model, "encode_sequence")
    before = _boundaries()
    with pytest.raises(tracing.BoundaryMissing, match="liverec.model.encode_sequence"):
        tracing.traced_call(lambda: None)
    assert _boundaries() == before


def test_boundary_never_called_fails_loudly():
    _, trace = tracing.traced_call(lambda: None)
    with pytest.raises(tracing.BoundaryMissing, match="autodiff.backward"):
        tracing.require_calls(trace, ["autodiff.backward"], "an empty region")


def test_tracing_restores_every_boundary_after_an_error():
    before = _boundaries()
    with pytest.raises(ZeroDivisionError):
        tracing.traced_call(lambda: 1 / 0)
    assert _boundaries() == before


def test_score_path_mismatch_counts_each_bad_pair(tmp_path, monkeypatch):
    workload = tiny("long-hist")
    data, _ = set_up(workload, 3, str(tmp_path))
    checks = harness.Checks()
    session = harness.Session(workload, 3, data, checks)
    session.train_rep()
    real = liverec.forward_pair
    skew = {(p.user_id, p.anchor_id) for p in data.test[:2]}

    def skewed(catalog, params, config, user_id, anchor_id):
        s = real(catalog, params, config, user_id, anchor_id)
        return s * 0.5 if (user_id, anchor_id) in skew else s

    monkeypatch.setattr(liverec, "forward_pair", skewed)
    for p in data.test[:10]:
        session.score(p)
    session.cross_check()
    assert not checks.correct
    assert checks.failed == len({p for p in data.test[:10] if (p.user_id, p.anchor_id) in skew})


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".tmp-*"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "short-hist", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
