"""Per-layer tracing of finslerlab from outside the package.

The tracer replaces public functions in the module namespaces their callers
use (``geodesics.integrate_ivp`` is a different binding from
``projective.integrate_ivp``), wraps each structure's ``f2`` and
``spray_fast`` attributes, and wraps the arithmetic methods of ``Jet``.  No
file of the package is changed.

Every wrapped call except jet arithmetic records one span
``(id, parent, op, name, start, end)`` in memory.  Jet arithmetic is too
fine-grained for a span per call, so it is recorded as call counts plus
accumulated time, which is charged as child time to the enclosing span.  A
span's self time is its duration minus what its children cover.
"""

from __future__ import annotations

import csv
import functools
import inspect
from collections import Counter
from time import perf_counter

LAYERS = ("jets", "metrics", "ode", "geodesics", "curvature", "projective")

# Dormand-Prince: an attempted step calls the right-hand side for stages 2..7;
# stage 1 reuses the last derivative, and each integration makes one extra
# call for the initial derivative.
RHS_CALLS_PER_ATTEMPT = 6

JET_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__abs__",
    "sqrt", "exp", "log", "partial", "truncated", "derivative",
)

PER_LAYER = (
    "jets.mul_calls", "jets.self_s",
    "metrics.f2_calls", "metrics.f2_jet_calls", "metrics.spray_fast_calls",
    "metrics.fundamental_tensor_calls", "metrics.inverse_calls", "metrics.self_s",
    "ode.ivp_calls", "ode.rhs_calls", "ode.steps_accepted", "ode.step_attempts",
    "ode.useful_step_ratio", "ode.domain_exits", "ode.self_s",
    "geodesics.shots_per_distance", "geodesics.useful_shot_ratio",
    "geodesics.newton_iterations", "geodesics.candidates_polished",
    "geodesics.spray_jet_calls", "geodesics.self_s",
    "curvature.riemann_calls", "curvature.ricci_scalar_calls",
    "curvature.ricci_tensor_calls", "curvature.flag_calls", "curvature.self_s",
    "projective.canonical_map_calls", "projective.lemma2_calls", "projective.self_s",
    "trace.overhead_ratio",
)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, op, name, start, end)
        self.stack = []  # open spans: [id, start, child seconds]
        self.counts = Counter()
        self.self_s = Counter()
        self.op = -1
        self._next_id = 0
        self._in_jet = False

    # ----- spans ---------------------------------------------------------

    def _open(self):
        self._next_id += 1
        frame = [self._next_id, perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def _close(self, frame, layer, name):
        end = perf_counter()
        self.stack.pop()
        span_id, start, child = frame
        dur = end - start
        self.self_s[layer] += dur - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        self.spans.append((span_id, parent[0] if parent else 0, self.op, name, start, end))

    def span(self, layer, name, fn, after=None):
        """Wrap fn so each call counts once and records one span."""
        key = f"{layer}.{name}"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counts[key] += 1
            frame = tracer._open()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(frame, layer, key)
            if after is not None:
                after(out)
            return out

        return traced

    # ----- jets ----------------------------------------------------------

    def jet_method(self, name, fn):
        """Count a Jet method and add its outermost-call time to the jets layer."""
        is_mul = name in ("__mul__", "__rmul__")
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_mul:
                tracer.counts["jets.mul_calls"] += 1
            if tracer._in_jet:
                return fn(*args, **kwargs)
            tracer._in_jet = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                tracer._in_jet = False
                tracer.self_s["jets"] += dur
                if tracer.stack:
                    tracer.stack[-1][2] += dur

        return traced

    # ----- ode -----------------------------------------------------------

    def ivp(self, caller, fn):
        """Wrap integrate_ivp as bound in the namespace of module `caller`.

        The right-hand side is the caller's closure, so its spans belong to
        the caller's layer; what is left of the integration span is the
        stepping overhead of the ode layer.
        """
        tracer = self
        traced_ivp = self.span("ode", "integrate_ivp", fn)

        @functools.wraps(fn)
        def wrapper(rhs, *args, **kwargs):
            state = {"first": True, "stage": 0, "attempts": 0}
            rhs_span = tracer.span(caller, "rhs", rhs)

            def counted_rhs(z):
                tracer.counts["ode.rhs_calls"] += 1
                if state["first"]:
                    state["first"] = False
                    return rhs_span(z)
                state["stage"] += 1
                try:
                    out = rhs_span(z)
                except Exception:
                    state["attempts"] += 1
                    state["stage"] = 0
                    raise
                if state["stage"] == RHS_CALLS_PER_ATTEMPT:
                    state["attempts"] += 1
                    state["stage"] = 0
                return out

            tracer.counts[f"ode.ivp_from_{caller}"] += 1
            try:
                traj = traced_ivp(counted_rhs, *args, **kwargs)
            except tracer._domain_exit as exc:
                tracer.counts["ode.domain_exits"] += 1
                if exc.trajectory is not None:
                    tracer.counts["ode.steps_accepted"] += len(exc.trajectory.steps)
                raise
            else:
                tracer.counts["ode.steps_accepted"] += len(traj.steps)
                return traj
            finally:
                tracer.counts["ode.step_attempts"] += state["attempts"] + (state["stage"] > 0)

        return wrapper

    # ----- installation --------------------------------------------------

    def install(self, fl, structures):
        """Wrap the package's public functions, Jet methods and structure hooks."""
        self._jet = fl.jets.Jet
        self._domain_exit = fl.errors.DomainExitError
        modules = {layer: getattr(fl, layer) for layer in LAYERS}
        defined_in = {mod.__name__: layer for layer, mod in modules.items()}
        for caller, mod in modules.items():
            if caller == "jets":
                continue
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                layer = defined_in.get(fn.__module__)
                if layer is None or layer == "jets":
                    continue
                if name == "integrate_ivp":
                    wrapped = self.ivp(caller, fn)
                elif name == "finsler_distance":
                    wrapped = self.span(layer, name, fn, after=self._distance_done)
                else:
                    wrapped = self.span(layer, name, fn)
                setattr(mod, name, wrapped)
        for name in JET_METHODS:
            setattr(self._jet, name, self.jet_method(name, vars(self._jet)[name]))
        for S in structures:
            S.f2 = self.span("metrics", "f2", self._f2_counter(S.f2))
            if S.spray_fast is not None:
                S.spray_fast = self.span("metrics", "spray_fast", S.spray_fast)

    def _f2_counter(self, f2):
        tracer = self

        def counted(x, y):
            if any(isinstance(v, tracer._jet) for v in y):
                tracer.counts["metrics.f2_jet_calls"] += 1
            return f2(x, y)

        return counted

    def _distance_done(self, res):
        diag = res.diagnostics
        self.counts["geodesics.newton_iterations"] += diag.get("newton_iterations", 0)
        self.counts["geodesics.candidates_polished"] += diag.get("candidates_polished", 0)

    # ----- results -------------------------------------------------------

    def per_layer(self, ops: int, overhead_ratio: float) -> dict:
        """Every PER_LAYER metric: counts and self seconds per op, plus ratios."""
        c = self.counts
        shots = c["ode.ivp_from_geodesics"]
        distances = c["geodesics.finsler_distance"]
        per_op = {
            "jets.mul_calls": c["jets.mul_calls"],
            "metrics.f2_calls": c["metrics.f2"],
            "metrics.f2_jet_calls": c["metrics.f2_jet_calls"],
            "metrics.spray_fast_calls": c["metrics.spray_fast"],
            "metrics.fundamental_tensor_calls": c["metrics.fundamental_tensor"],
            "metrics.inverse_calls": c["metrics.invert_scalarlike_matrix"],
            "ode.ivp_calls": c["ode.integrate_ivp"],
            "ode.rhs_calls": c["ode.rhs_calls"],
            "ode.steps_accepted": c["ode.steps_accepted"],
            "ode.step_attempts": c["ode.step_attempts"],
            "ode.domain_exits": c["ode.domain_exits"],
            "geodesics.newton_iterations": c["geodesics.newton_iterations"],
            "geodesics.candidates_polished": c["geodesics.candidates_polished"],
            "geodesics.spray_jet_calls": (
                c["geodesics.spray_coefficients"] + c["geodesics.spray_jet_functions"]
            ),
            "curvature.riemann_calls": c["curvature.riemann_curvature"],
            "curvature.ricci_scalar_calls": c["curvature.ricci_scalar"],
            "curvature.ricci_tensor_calls": c["curvature.ricci_tensor"],
            "curvature.flag_calls": c["curvature.flag_curvature"],
            "projective.canonical_map_calls": c["projective.canonical_projective_map"],
            "projective.lemma2_calls": c["projective.lemma2_check"],
        }
        out = {name: value / ops for name, value in per_op.items()}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer] / ops
        attempts = c["ode.step_attempts"]
        out["ode.useful_step_ratio"] = c["ode.steps_accepted"] / attempts if attempts else 0.0
        out["geodesics.shots_per_distance"] = shots / distances if distances else 0.0
        out["geodesics.useful_shot_ratio"] = distances / shots if shots else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        return {name: out[name] for name in PER_LAYER}

    def write_spans(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "parent", "op", "name", "start", "end"))
            writer.writerows(self.spans)
