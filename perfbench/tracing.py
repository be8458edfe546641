"""Per-layer tracing from outside the program.

The tracer swaps each layer boundary for a wrapper that times the call and
counts its work, and puts the original back afterwards.  A boundary is
patched where the caller looks it up: `liverec.model` imports the encoder,
interaction and retrieval functions by name, so they are patched on that
module, while the model reaches `backward` through the `liverec.autodiff`
module.  Calls that the patched functions make among themselves through
their own modules stay inside the caller's span.

A layer's self time is its span's duration minus the time its child spans
cover; the time of the traced region not covered by any span is the
model's own glue (`model.self_s`).
"""
from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from liverec.autodiff import Tensor


class BoundaryMissing(RuntimeError):
    """A traced boundary no longer exists or is no longer called where it is patched."""


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _length(states) -> int:
    """Rows of a stacked (M, d) state tensor or of a list of (d,) states."""
    if states is None:
        return 0
    return states.shape[0] if isinstance(states, Tensor) else len(states)


def _count_tape(counts, args, kwargs, out):
    counts["autodiff.tape_nodes"] += len(_arg(args, kwargs, 0, "tape").nodes)


def _count_sequences(counts, args, kwargs, out):
    counts["encoders.seq_batched.items"] += len(_arg(args, kwargs, 0, "position_matrices"))


def _count_item_pairs(counts, args, kwargs, out):
    m = _length(_arg(args, kwargs, 1, "user_states"))
    n = _length(_arg(args, kwargs, 3, "anchor_states"))
    counts["interaction.item_aspect.pairs"] += m * n


def _count_retrieval(counts, args, kwargs, out):
    user_index = _arg(args, kwargs, 0, "user_index")
    anchor_index = _arg(args, kwargs, 1, "anchor_index")
    full_m = sum(len(v) for v in user_index.owners.get(_arg(args, kwargs, 2, "user_id"), {}).values())
    full_n = sum(len(v) for v in anchor_index.owners.get(_arg(args, kwargs, 3, "anchor_id"), {}).values())
    counts["retrieval.full_pairs"] += full_m * full_n
    counts["retrieval.kept_pairs"] += len(out.user_items) * len(out.anchor_items)
    counts["retrieval.empty"] += not out.common_categories


# (layer, module, attribute, work counter); two attributes may share a layer
BOUNDARIES = (
    ("autodiff.backward", "liverec.autodiff", "backward", _count_tape),
    ("encoders.seq_batched", "liverec.model", "encode_sequences_batched", _count_sequences),
    ("encoders.seq_single", "liverec.model", "encode_sequence", None),
    ("encoders.pnn", "liverec.model", "pnn_encode", None),
    ("encoders.pnn", "liverec.model", "pnn_encode_batch", None),
    ("interaction.item_aspect", "liverec.model", "item_aspect_interaction", _count_item_pairs),
    ("interaction.anchor_aspect", "liverec.model", "anchor_aspect_interaction", None),
    ("interaction.embed", "liverec.model", "embed_similarity", None),
    ("retrieval.co_retrieve", "liverec.model", "co_retrieve", _count_retrieval),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in BOUNDARIES))


class Trace:
    """Aggregated spans of one traced region."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: dict[str, float] = defaultdict(float)
        self.wall_s = 0.0
        self.child_s = 0.0  # time the region's direct child spans cover
        self._child_stack = [0.0]

    def _wrap(self, layer, fn, counter):
        def traced(*args, **kwargs):
            stack = self._child_stack
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                child = stack.pop()
            self.self_s[layer] += (t1 - t0) - child
            self.calls[layer] += 1
            if counter is not None:
                counter(self.counts, args, kwargs, out)
            # the counter's own cost goes to no layer's self time
            stack[-1] += time.perf_counter() - t0
            return out

        return traced


@contextmanager
def _patched(trace: Trace):
    saved = []
    try:
        for layer, module_name, attr, counter in BOUNDARIES:
            module = importlib.import_module(module_name)
            if not callable(getattr(module, attr, None)):
                raise BoundaryMissing(
                    f"cannot trace layer {layer}: {module_name}.{attr} no longer exists; "
                    "update BOUNDARIES in perfbench/tracing.py"
                )
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, trace._wrap(layer, original, counter))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def traced_call(fn):
    """Run fn() with every boundary traced; returns (fn's result, Trace)."""
    trace = Trace()
    with _patched(trace):
        t0 = time.perf_counter()
        out = fn()
        trace.wall_s = time.perf_counter() - t0
    trace.child_s = trace._child_stack[0]
    return out, trace


def require_calls(trace: Trace, layers, where: str) -> None:
    """Fail loudly when a layer that must run in this region was never seen.

    A boundary that still exists but is no longer looked up where it is
    patched would otherwise read as 0 s.
    """
    for layer in layers:
        if trace.calls[layer] == 0:
            attrs = ", ".join(f"{m}.{a}" for name, m, a, _ in BOUNDARIES if name == layer)
            raise BoundaryMissing(
                f"layer {layer} was never called during {where}: the program no longer calls "
                f"{attrs}; update BOUNDARIES in perfbench/tracing.py"
            )
