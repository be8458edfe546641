"""One benchmark run: set-up, then the train, eval and score phases.

A plain run (``trace=False``) measures the end-to-end metrics with no
tracing installed.  A traced run does the same work per rep, once plain and
once traced, and reports the per-layer split keyed by phase plus the
tracing overhead.  Both check the program's outputs; see `Session`.
"""
from __future__ import annotations

import ctypes
import glob
import math
import os
import resource
import statistics
import time
import traceback
from collections import defaultdict

import numpy as np

import liverec
import tracing
from workloads import SETUP_STAGES, Workload, set_up, train_config

PHASES = ("train", "eval", "score")
PHASE_SHARE = {"setup": 0.1, "train": 0.35, "eval": 0.25, "score": 0.3}  # of --seconds
SETUP_REPS = 5  # at least
SCORE_UNIT_S = 0.2
# Seconds one reference unit took on the host of the first baseline in its
# usual (slow) mode; timed figures are scaled to this speed (see run_plain).
REFERENCE_S = 0.018
LOGLOSS_TOLERANCE = 1e-9

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_pairs_per_s": "pairs/s",
    "eval_pairs_per_s": "pairs/s",
    "score_p50_ms": "ms",
    "score_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "train_loss": "nats",
    "test_logloss": "nats",
    "test_auc": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every metric a traced run reports, with its unit."""
    units = {stage: "s" for stage in SETUP_STAGES}
    units["shape.user_hist_mean"] = "items"
    units["shape.anchor_hist_mean"] = "items"
    for phase in PHASES:
        p = phase + "."
        units[p + "wall_s"] = "s"
        units[p + "trace_overhead_s"] = "s"
        for layer in _phase_layers(phase):
            units[f"{p}{layer}.self_s"] = "s"
            units[f"{p}{layer}.calls"] = "count"
        if phase == "train":
            units[p + "autodiff.tape_nodes_per_pair"] = "nodes/pair"
        units[p + "encoders.seq_batched.items"] = "count"
        units[p + "interaction.item_aspect.pairs_mean"] = "pairs"
        units[p + "retrieval.kept_pair_share"] = "ratio"
        units[p + "retrieval.empty_share"] = "ratio"
        units[p + "model.self_s"] = "s"
        units[p + "model.owners_per_pair"] = "owners/pair"
    return units


def _phase_layers(phase: str):
    return [layer for layer in tracing.LAYERS if phase == "train" or not layer.startswith("autodiff.")]


def _required_layers(variant: str, phase: str) -> set[str]:
    """Layers every rep of this phase must reach; see tracing.require_calls."""
    layers = {"encoders.pnn", "interaction.item_aspect", "interaction.anchor_aspect", "interaction.embed"}
    layers |= {
        "train": {"autodiff.backward", "encoders.seq_batched"},
        "eval": {"encoders.seq_batched"},
        "score": {"encoders.seq_single"},
    }[phase]
    if variant == "with_co_retrieval":
        layers.add("retrieval.co_retrieve")
    return layers


class Checks:
    """Operations attempted and failed, and every correctness problem seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def problem(self, message: str, failed: int = 0) -> None:
        self.problems.append(message)
        self.failed += failed

    @property
    def correct(self) -> bool:
        return not self.problems


class Session:
    """Drives the public liverec API on one workload's data and checks it.

    Checks: the training loss is finite, every score is finite and in
    (0, 1), repeating a rep (traced or not) reproduces its result exactly,
    and the batched eval path agrees with the per-owner score path on the
    scored pairs (`cross_check`).
    """

    def __init__(self, workload: Workload, seed: int, data, checks: Checks):
        self.data = data
        self.config = train_config(workload, seed)
        self.train_work = len(data.train) * self.config.epochs  # pairs one train rep processes
        self.checks = checks
        self.params = None
        self.train_loss = None
        self.report = None
        self.scores: dict = {}

    def train_rep(self) -> None:
        params, rows = liverec.train(self.data.catalog, self.data.train, self.config)
        n = self.train_work
        self.checks.attempted += n
        loss = rows[-1].train_loss
        if not math.isfinite(loss):
            self.checks.problem(f"train_loss {loss!r} is not finite", failed=n)
        if self.params is None:
            self.params, self.train_loss = params, loss
        elif loss != self.train_loss or not all(
            np.array_equal(a, b) for (_, a), (_, b) in zip(params.named_arrays(), self.params.named_arrays())
        ):
            self.checks.problem("two train reps on the same data gave different parameters or loss")

    def eval_rep(self) -> None:
        report = liverec.evaluate_pairs(self.data.catalog, self.params, self.config, self.data.test)
        n = len(self.data.test)
        self.checks.attempted += n
        if not math.isfinite(report.logloss) or report.auc is None:
            self.checks.problem(f"eval logloss {report.logloss!r}, auc {report.auc!r}", failed=n)
        if self.report is None:
            self.report = report
        elif (report.auc, report.logloss) != (self.report.auc, self.report.logloss):
            self.checks.problem("two eval reps on the same data gave different reports")

    def score(self, pair) -> float:
        """Score one pair through the cold per-owner path; returns its latency in seconds."""
        self.checks.attempted += 1
        t0 = time.perf_counter()
        try:
            s = liverec.forward_pair(self.data.catalog, self.params, self.config, pair.user_id, pair.anchor_id)
        except Exception:
            latency = time.perf_counter() - t0
            self.checks.problem(f"scoring {pair} raised:\n{traceback.format_exc()}", failed=1)
            return latency
        latency = time.perf_counter() - t0
        if not (math.isfinite(s) and 0.0 < s < 1.0):
            self.checks.problem(f"score {s!r} for {pair} is not in (0, 1)", failed=1)
        elif self.scores.setdefault(pair, s) != s:
            self.checks.problem(f"{pair} scored {s!r}, earlier {self.scores[pair]!r}", failed=1)
        return latency

    def cross_check(self) -> None:
        """evaluate_pairs over the scored pairs must give the logloss of their scores."""
        pairs = list(self.scores)
        if not pairs:
            self.checks.problem("no pair was scored")
            return
        catalog, params, config = self.data.catalog, self.params, self.config

        def gap(subset):
            batched = liverec.evaluate_pairs(catalog, params, config, subset).logloss
            direct = liverec.compute_logloss([self.scores[p] for p in subset], [p.label for p in subset])
            return abs(batched - direct)

        total = gap(pairs)
        if total <= LOGLOSS_TOLERANCE:
            return
        bad = sum(gap([p]) > LOGLOSS_TOLERANCE for p in pairs)
        self.checks.problem(
            f"evaluate_pairs and forward_pair disagree on {len(pairs)} scored pairs "
            f"(logloss gap {total!r}); {bad} single pairs disagree",
            failed=bad,
        )


def _set_up_repeatedly(workload, seed, workdir):
    """Set up SETUP_REPS times; returns the last data and each stage's times."""
    stages = defaultdict(list)
    for _ in range(SETUP_REPS):
        data, times = set_up(workload, seed, workdir)
        for name, seconds in times.items():
            stages[name].append(seconds)
    return data, stages


def _history_shape(data) -> dict[str, float]:
    users, anchors = data.catalog.users.values(), data.catalog.anchors.values()
    return {
        "shape.user_hist_mean": statistics.fmean(len(u.browsed_items) for u in users),
        "shape.anchor_hist_mean": statistics.fmean(len(a.broadcast_items) for a in anchors),
    }


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


_REF_RNG = np.random.default_rng(0)
_REF_X = _REF_RNG.standard_normal((200, 32))
_REF_W = _REF_RNG.standard_normal((32, 128))


def reference_unit() -> float:
    """Seconds one fixed unit of work takes now: the host's current speed.

    The work is of the program's own kind, small matrix products, tanh and
    element-wise blends driven from a Python loop, so a host that slows
    down slows it by about as much as it slows the program.
    """
    x = _REF_X
    t0 = time.perf_counter()
    for _ in range(150):
        x = np.tanh(x @ _REF_W)[:, :32] * 0.5 + x * 0.5
    return time.perf_counter() - t0


def run_plain(workload: Workload, seed: int, seconds: float, workdir: str, checks: Checks):
    """End-to-end metrics with tracing off; returns (metrics, shape).

    The machine's speed drifts over seconds, so the phases take turns in
    small units instead of running back to back: each metric then samples
    the whole run, not one stretch of it.  The next unit always goes to the
    phase furthest below its share of the time spent.

    A shared host also switches for seconds to minutes between a slow and a
    fast mode about 1.4x apart, which turns a whole run fast.  So a
    reference unit is timed between every two units, and each unit's
    seconds are scaled by REFERENCE_S over the mean of the two references
    around it.  The timing metrics are these scaled seconds: what the run
    would have taken at the reference speed.  The figures as timed are on
    the information line (`as_timed`).
    """
    raw = {"setup": [], "train": [], "eval": [], "score": []}  # seconds as timed
    scaled = {kind: [] for kind in raw}  # the same, at the reference speed
    reference_unit()  # warm-up
    refs = [reference_unit()]

    def record(kind, seconds_list):
        refs.append(reference_unit())
        scale = REFERENCE_S / statistics.fmean(refs[-2:])
        raw[kind] += seconds_list
        scaled[kind] += [t * scale for t in seconds_list]
        return sum(seconds_list) + refs[-1]

    data, stages = set_up(workload, seed, workdir)
    session = Session(workload, seed, data, checks)
    spent = {"setup": record("setup", [sum(stages.values())]), "train": 0.0, "eval": 0.0, "score": 0.0}

    def score_unit():
        # closed loop: one caller, next request once the last has returned
        latencies, start = [], time.perf_counter()
        while time.perf_counter() - start < SCORE_UNIT_S:
            latencies.append(session.score(data.test[(len(raw["score"]) + len(latencies)) % len(data.test)]))
        return latencies

    units = {
        "setup": (lambda: [sum(set_up(workload, seed, workdir)[1].values())], SETUP_REPS),
        "train": (lambda: [_timed(session.train_rep)], 1),
        "eval": (lambda: [_timed(session.eval_rep)], 1),
        "score": (score_unit, workload.min_score_samples),
    }
    while True:
        below_minimum = [name for name, (_, least) in units.items() if len(raw[name]) < least]
        if not below_minimum and sum(spent.values()) >= seconds:
            break
        # eval and score need the parameters of a first train rep
        name = "train" if not raw["train"] else min(below_minimum or units, key=lambda n: spent[n] / PHASE_SHARE[n])
        spent[name] += record(name, units[name][0]())
    session.cross_check()

    def end_to_end(times):
        p50, p90 = np.percentile(np.array(times["score"]) * 1e3, [50, 90])
        return {
            "setup_s": statistics.median(times["setup"]),
            "train_pairs_per_s": session.train_work * len(times["train"]) / sum(times["train"]),
            "eval_pairs_per_s": len(data.test) * len(times["eval"]) / sum(times["eval"]),
            "score_p50_ms": float(p50),
            "score_p90_ms": float(p90),
        }

    values = end_to_end(scaled) | {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "train_loss": session.train_loss,
        "test_logloss": session.report.logloss,
        "test_auc": session.report.auc or 0.0,  # None is already a recorded problem
    }
    shape = _history_shape(data) | {
        "train_pairs": len(data.train),
        "train_epochs": session.config.epochs,
        "test_pairs": len(data.test),
        "setup_rep_s": raw["setup"],
        "train_rep_s": raw["train"],
        "eval_rep_s": raw["eval"],
        "score_samples": len(raw["score"]),
        "as_timed": end_to_end(raw),
        "reference_s": statistics.median(refs),
        "scored_distinct_pairs": len(session.scores),
        "eval.interaction.item_aspect.pairs_mean": session.report.mean_pair_budget,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}, shape


def _phase_metrics(phase: str, plain_times, traces, pairs: int) -> dict[str, float]:
    def med(value):
        return statistics.median(value(t) for t in traces)

    out = {
        "wall_s": statistics.median(plain_times),
        "trace_overhead_s": statistics.median(t.wall_s - plain for t, plain in zip(traces, plain_times)),
        "model.self_s": med(lambda t: t.wall_s - t.child_s),
        "model.owners_per_pair": med(
            lambda t: (t.counts["encoders.seq_batched.items"] + t.calls["encoders.seq_single"]) / pairs
        ),
        "encoders.seq_batched.items": med(lambda t: t.counts["encoders.seq_batched.items"]),
        "interaction.item_aspect.pairs_mean": med(
            lambda t: t.counts["interaction.item_aspect.pairs"] / max(t.calls["interaction.item_aspect"], 1)
        ),
        "retrieval.kept_pair_share": med(
            lambda t: t.counts["retrieval.kept_pairs"] / max(t.counts["retrieval.full_pairs"], 1)
        ),
        "retrieval.empty_share": med(
            lambda t: t.counts["retrieval.empty"] / max(t.calls["retrieval.co_retrieve"], 1)
        ),
    }
    if phase == "train":
        out["autodiff.tape_nodes_per_pair"] = med(lambda t: t.counts["autodiff.tape_nodes"] / pairs)
    for layer in _phase_layers(phase):
        out[f"{layer}.self_s"] = med(lambda t: t.self_s[layer])
        out[f"{layer}.calls"] = med(lambda t: t.calls[layer])
    return {f"{phase}.{name}": value for name, value in out.items()}


def run_traced(workload: Workload, seed: int, seconds: float, workdir: str, checks: Checks):
    """Per-layer metrics; each phase runs pairs of a plain and a traced rep of
    the same work, and the median of the pairs' differences is the tracing
    overhead.  Which rep of a pair goes first alternates, so that neither
    side always meets a warmer or colder machine.  Returns (metrics, shape)."""
    data, stages = _set_up_repeatedly(workload, seed, workdir)
    values = {name: statistics.median(times) for name, times in stages.items()}
    values |= _history_shape(data)
    session = Session(workload, seed, data, checks)
    score_pairs = [data.test[i % len(data.test)] for i in range(workload.min_score_samples)]
    work = {
        "train": (session.train_rep, session.train_work),
        "eval": (session.eval_rep, len(data.test)),
        "score": (lambda: [session.score(p) for p in score_pairs], len(score_pairs)),
    }
    shape = {"train_pairs": len(data.train), "test_pairs": len(data.test), "setup_reps": SETUP_REPS}
    for phase in PHASES:
        fn, pairs = work[phase]
        plain_times, traces = [], []
        budget, start = seconds * PHASE_SHARE[phase], time.perf_counter()
        while True:
            if len(traces) % 2:
                traces.append(tracing.traced_call(fn)[1])
                plain_times.append(_timed(fn))
            else:
                plain_times.append(_timed(fn))
                traces.append(tracing.traced_call(fn)[1])
            tracing.require_calls(traces[-1], _required_layers(workload.variant, phase), f"the {phase} phase")
            if time.perf_counter() - start + plain_times[-1] + traces[-1].wall_s > budget:
                break
        values |= _phase_metrics(phase, plain_times, traces, pairs)
        shape[f"{phase}_reps"] = len(traces)
    session.cross_check()
    units = per_layer_units()
    return {name: (values[name], unit) for name, unit in units.items()}, shape


def blas_threads() -> int | None:
    """Threads numpy's OpenBLAS will use, or None when that cannot be read."""
    numpy_libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(numpy_libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def run(workload: Workload, seed: int, seconds: float, trace: bool, workdir: str):
    """One benchmark run; returns (info line, result line) as JSON-ready dicts."""
    checks = Checks()
    metrics, shape = (run_traced if trace else run_plain)(workload, seed, seconds, workdir, checks)
    info = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "blas_threads": blas_threads(),
        "shape": shape,
        "problems": checks.problems[:20],
    }
    result = {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return info, result
