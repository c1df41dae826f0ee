"""In-memory span recorder that wraps the public entry points of ``tpgn``.

The traced run replaces a fixed set of module attributes (and one class
method) with thin wrappers that record a span per call: name, start, end,
parent span, the phase it ran in and the loop iteration it belongs to.
Nothing under ``src/`` changes; ``uninstall`` puts every original back, so
an untraced stretch of the same process runs the unwrapped program.

A span's self time is its duration minus the time covered by its direct
child spans, which the recorder accumulates while the child closes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

# Autodiff primitives whose forward cost the traced run attributes by name.
AUTODIFF_OPS = ("linear", "matmul", "sigmoid", "tanh", "concat", "permute",
                "reshape", "lerp", "repeat_rows", "slice_rows")


@dataclass
class Span:
    sid: int
    name: str
    parent: int          # sid of the enclosing span, -1 at top level
    start: float
    end: float
    self_s: float        # duration minus the time of direct children
    phase: str           # "setup" or "loop"
    iteration: int       # loop iteration (the request id); -1 outside the loop
    value: float         # per-span count: tape nodes, windows built or MACs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped calls; install/uninstall are idempotent."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self.iteration = -1
        self._stack: list[list] = []   # [sid, child seconds] of open spans
        self._next = 0
        self._patches: list[tuple[object, str, object, object]] = []
        self.installed = False

    # -- recording -------------------------------------------------------

    def _call(self, name: str, fn, args, kwargs, value_of):
        sid = self._next
        self._next += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += t1 - t0
        value = value_of(args, kwargs, result) if value_of else 0.0
        self.spans.append(Span(sid, name, parent, t0, t1, (t1 - t0) - frame[1],
                               self.phase, self.iteration, float(value)))
        return result

    def _add(self, owner, attr: str, name, value_of=None,
             is_class: bool = False) -> None:
        raw = vars(owner)[attr]
        target = getattr(owner, attr)
        namer = name if callable(name) else (lambda args, kwargs, _n=name: _n)

        def wrapper(*args, **kwargs):
            return self._call(namer(args, kwargs), target, args, kwargs, value_of)

        self._patches.append((owner, attr, raw,
                              staticmethod(wrapper) if is_class else wrapper))

    def install(self) -> None:
        if not self.installed:
            for owner, attr, _, wrapped in self._patches:
                setattr(owner, attr, wrapped)
            self.installed = True

    def uninstall(self) -> None:
        if self.installed:
            for owner, attr, raw, _ in self._patches:
                setattr(owner, attr, raw)
            self.installed = False

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        """One JSON object per span, in closing order."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end, "self_s": s.self_s,
                    "phase": s.phase, "iteration": s.iteration,
                    "value": s.value}) + "\n")


def build_tracer(tpgn) -> Tracer:
    """A tracer wired to the public entry points of the imported package.

    ``tpgn`` is the package object; its submodules must be imported.
    Module-level functions are patched under every module name through
    which the library itself calls them, so calls made inside ``fit`` or
    ``evaluate`` are recorded as well as calls made by the benchmark.
    """
    ad, model, data = tpgn.autodiff, tpgn.model, tpgn.data
    training, baselines = tpgn.training, tpgn.baselines
    tr = Tracer()

    for op in AUTODIFF_OPS:
        tr._add(ad, op, f"autodiff.op.{op}")
    tr._add(ad, "backward", "autodiff.backward",
            value_of=lambda a, k, r: len(a[0].graph))

    def forward_name(args, kwargs):
        weights = kwargs.get("weights", args[3] if len(args) > 3 else None)
        return "model.forward_untracked" if weights is None else "model.forward_tracked"

    def forward_macs(args, kwargs, result):
        windows, params, cfg = args[0], args[1], args[2]
        cost = model.flop_count(params, params.l_h, params.l_f, cfg.variant)
        return len(windows) * cost.total

    for owner in (model, training):   # training binds its own name at import
        tr._add(owner, "tpgn_forward_batch", forward_name, value_of=forward_macs)
    tr._add(model, "prepare_input", "model.prepare_input")

    for fn in ("load_csv", "aggregate_hourly", "standardize_series",
               "split_and_window"):
        tr._add(data, fn, f"data.{fn}")
    tr._add(data, "windows_of", "data.windows_of",
            value_of=lambda a, k, r: len(r))

    for fn in ("fit", "evaluate", "predict_windows", "adam_step"):
        tr._add(training, fn, f"training.{fn}")
    tr._add(training.Checkpoint, "load", "training.checkpoint_load", is_class=True)

    tr._add(baselines, "gru_step", "baselines.gru_step")
    return tr


def layer_metrics(tracer: Tracer, loop_iterations: int) -> dict[str, tuple[float, str]]:
    """Per-layer numbers from the recorded spans.

    ``*_ms`` is mean self time per call over every recorded span of that
    name (set-up and loop); ``*_calls`` is calls per traced loop iteration.
    ``training.validation_ms`` is the inclusive time of a ``predict_windows``
    call made by ``fit``.  Layers never called report 0.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    loop_calls: dict[str, int] = {}
    values: dict[str, float] = {}
    for s in tracer.spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_s
        values[s.name] = values.get(s.name, 0.0) + s.value
        if s.phase == "loop":
            loop_calls[s.name] = loop_calls.get(s.name, 0) + 1
    iters = max(loop_iterations, 1)

    def ms(name):
        return (1e3 * self_s[name] / calls[name] if calls.get(name) else 0.0, "ms")

    def per_iter(name):
        return (loop_calls.get(name, 0) / iters, "count")

    def mean_value(name):
        return (values[name] / calls[name] if calls.get(name) else 0.0, "count")

    out: dict[str, tuple[float, str]] = {
        "autodiff.backward_ms": ms("autodiff.backward"),
        "autodiff.backward_calls": per_iter("autodiff.backward"),
        "autodiff.tape_nodes": mean_value("autodiff.backward"),
    }
    for op in AUTODIFF_OPS:
        out[f"autodiff.op.{op}_ms"] = ms(f"autodiff.op.{op}")
        out[f"autodiff.op.{op}_calls"] = per_iter(f"autodiff.op.{op}")
    for kind in ("tracked", "untracked"):
        out[f"model.forward_{kind}_ms"] = ms(f"model.forward_{kind}")
        out[f"model.forward_{kind}_calls"] = per_iter(f"model.forward_{kind}")
    out["model.prepare_input_ms"] = ms("model.prepare_input")
    out["model.prepare_input_calls"] = per_iter("model.prepare_input")
    fwd = [s for s in tracer.spans if s.phase == "loop"
           and s.name.startswith("model.forward_")]
    macs = sum(s.value for s in fwd)
    fwd_s = sum(s.duration for s in fwd)
    out["model.forward_macs"] = (macs / iters, "count")
    out["model.forward_gmac_per_s"] = (macs / fwd_s / 1e9 if fwd_s else 0.0, "GMAC/s")
    for fn in ("load_csv", "aggregate_hourly", "standardize_series",
               "split_and_window", "windows_of"):
        out[f"data.{fn}_ms"] = ms(f"data.{fn}")
    out["data.windows_built"] = mean_value("data.windows_of")
    out["training.adam_step_ms"] = ms("training.adam_step")
    fits = {s.sid for s in tracer.spans if s.name == "training.fit"}
    val = [s.duration for s in tracer.spans if s.name == "training.predict_windows"
           and s.parent in fits]
    out["training.validation_ms"] = (1e3 * sum(val) / len(val) if val else 0.0, "ms")
    out["training.checkpoint_load_ms"] = ms("training.checkpoint_load")
    out["baselines.gru_step_ms"] = ms("baselines.gru_step")
    out["baselines.gru_step_calls"] = per_iter("baselines.gru_step")
    return out
