"""Spans around the calls into each extrusim module, recorded from outside.

`Tracer.install` wraps the public functions in `TRACED` in their defining
module and in every extrusim module that bound the same object with
``from .x import y``; methods are wrapped on their class.  Each call records
one span: name, start, end, parent span, operation id, and up to two counts
read from its arguments or return value.  Spans stay in memory (flat arrays)
until `save` writes them out.  `layer_metrics` turns the spans of one
operation into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np


def _points(args, kwargs, ret):
    return np.size(args[1]), 0


def _origins(args, kwargs, ret):
    is_boundary = ret[0]
    return is_boundary.size, int(np.count_nonzero(is_boundary))


def _origin(args, kwargs, ret):
    return 1, 0 if ret.is_initial else 1


def _segments(args, kwargs, ret):
    return len(ret.reports), 0


def _iterations(args, kwargs, ret):
    return ret.iterations, 0


def _upwind(args, kwargs, ret):
    field = ret[1]
    steps = field.t_grid.size - 1
    return steps, steps * (field.x_grid.size - 1)


def _length(args, kwargs, ret):
    return len(ret), 0


def _field_points(args, kwargs, ret):
    return ret.values.size, 0


# module -> [(attribute path, counter)]; the module name is the layer name.
# The public functions the workloads reach and the metrics below need.
TRACED = {
    "cli": [("run", None)],
    "control": [("synthesize", _iterations), ("verify_control", None)],
    "wellposed": [
        ("solve_semiglobal", _segments),
        ("compute_delta", None),
        ("local_fixed_point", _iterations),
    ],
    "characteristics": [
        ("backtrace", _origin),
        ("backtrace_batch", _origins),
        ("backtrace_times", _origins),
        ("crossing_time", None),
    ],
    "quadrature": [
        ("cumulative_integral", None),
        ("HermiteAntiderivative.__call__", _points),
        ("HermiteAntiderivative.derivative", _points),
    ],
    "lintransport": [
        ("derivative_fields", None),
        ("solve_linear_transport", _field_points),
    ],
    "oracle": [("simulate_upwind", _upwind)],
    "fields": [("SolutionField.to_csv", _length)],
    "model": [
        ("eval_g", None),
        ("eval_F", None),
        ("eval_alpha_p", None),
        ("inflow_value", None),
        ("solve_equilibrium", None),
    ],
}

PER_LAYER = (
    ("characteristics.busy_s", "s"),
    ("characteristics.self_s", "s"),
    ("characteristics.origins", "count"),
    ("characteristics.boundary_origins", "count"),
    ("characteristics.us_per_origin", "us"),
    ("characteristics.crossing_s", "s"),
    ("quadrature.hermite_calls", "count"),
    ("quadrature.hermite_points", "count"),
    ("quadrature.busy_s", "s"),
    ("quadrature.calls_per_origin", "ratio"),
    ("wellposed.solve_s", "s"),
    ("wellposed.probe_s", "s"),
    ("wellposed.picard_s", "s"),
    ("wellposed.assembly_s", "s"),
    ("wellposed.segments", "count"),
    ("wellposed.picard_iters", "count"),
    ("wellposed.probe_maps", "count"),
    ("wellposed.picard_maps", "count"),
    ("control.synthesize_s", "s"),
    ("control.verify_s", "s"),
    ("control.self_s", "s"),
    ("control.synthesis_iters", "count"),
    ("oracle.upwind_s", "s"),
    ("oracle.upwind_steps", "count"),
    ("oracle.cell_updates_per_s", "1/s"),
    ("fields.to_csv_s", "s"),
    ("fields.csv_bytes", "B"),
    ("fields.csv_bytes_per_s", "B/s"),
    ("lintransport.derivative_s", "s"),
    ("lintransport.solve_calls", "count"),
    ("lintransport.sweep_points", "count"),
    ("model.calls", "count"),
    ("model.busy_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        entries = [(layer, path) for layer, paths in TRACED.items() for path, _ in paths]
        self.names = [f"{layer}.{path}" for layer, path in entries]
        self.layers = [layer for layer, _ in entries]
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.n1 = array("d")
        self.n2 = array("d")
        self._stack = [-1]
        self._op = -1
        self._patched: list = []
        self._wrappers: list = []

    def _wrap(self, fn, name_id: int, counter):
        stack = self._stack
        clock = time.perf_counter
        rec_name, rec_start, rec_end = self.name_of, self.start, self.end
        rec_parent, rec_op, rec_n1, rec_n2 = self.parent, self.op, self.n1, self.n2

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec_start)
            rec_name.append(name_id)
            rec_parent.append(stack[-1])
            rec_op.append(self._op)
            rec_end.append(0.0)
            rec_n1.append(0.0)
            rec_n2.append(0.0)
            stack.append(idx)
            rec_start.append(clock())
            try:
                ret = fn(*args, **kwargs)
            finally:
                rec_end[idx] = clock()
                stack.pop()
            if counter is not None:
                rec_n1[idx], rec_n2[idx] = counter(args, kwargs, ret)
            return ret

        return traced

    def _targets(self):
        """(defining module, owner of the attribute, attribute, counter) per name."""
        for layer, entries in TRACED.items():
            home = importlib.import_module(f"extrusim.{layer}")
            for path, counter in entries:
                owner_name, _, attr = path.rpartition(".")
                yield home, getattr(home, owner_name) if owner_name else home, attr, counter

    def install(self) -> None:
        """Wrap every function in TRACED wherever extrusim modules bind it."""
        targets = list(self._targets())
        if not self._wrappers:
            self._wrappers = [
                self._wrap(owner.__dict__[attr], name_id, counter)
                for name_id, (_, owner, attr, counter) in enumerate(targets)
            ]
        modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("extrusim.")]
        for (home, owner, attr, _), wrapper in zip(targets, self._wrappers):
            original = owner.__dict__[attr]
            self._set(owner, attr, wrapper)
            if owner is not home:
                continue
            for module in modules:
                if module is not home and module.__dict__.get(attr) is original:
                    self._set(module, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def begin_op(self, op_id: int) -> int:
        self._op = op_id
        return len(self.start)

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict:
        sl = slice(lo, hi)
        return {
            "name": np.frombuffer(self.name_of, dtype=np.int32)[sl].copy(),
            "start": np.frombuffer(self.start, dtype=np.float64)[sl].copy(),
            "end": np.frombuffer(self.end, dtype=np.float64)[sl].copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64)[sl].copy(),
            "op": np.frombuffer(self.op, dtype=np.int32)[sl].copy(),
            "n1": np.frombuffer(self.n1, dtype=np.float64)[sl].copy(),
            "n2": np.frombuffer(self.n2, dtype=np.float64)[sl].copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, lo: int, hi: int) -> dict:
        """Per-layer metrics of the spans recorded in [lo, hi) (one operation)."""
        s = self.arrays(lo, hi)
        n = s["name"].size
        ids = {name: i for i, name in enumerate(self.names)}
        layer_ids = {layer: i for i, layer in enumerate(TRACED)}
        layer_of = np.array([layer_ids[layer] for layer in self.layers], dtype=int)
        name = s["name"]
        dur = s["end"] - s["start"]
        parent = s["parent"] - lo
        has_parent = parent >= 0
        parent_name = np.full(n, -1)
        parent_name[has_parent] = name[parent[has_parent]]
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        layer = layer_of[name] if n else np.zeros(0, dtype=int)
        parent_layer = np.where(has_parent, layer_of[np.maximum(parent_name, 0)], -1)

        def select(*names):
            return np.isin(name, [ids[x] for x in names])

        def busy(*names):
            # time under these spans, not counting one called directly by another
            mask = select(*names)
            nested = np.isin(parent_name, [ids[x] for x in names])
            return float(dur[mask & ~nested].sum())

        def layer_top(layer_name):
            # spans of a layer not called from the same layer
            k = layer_ids[layer_name]
            return (layer == k) & (parent_layer != k)

        def layer_busy(layer_name):
            return float(dur[layer_top(layer_name)].sum())

        def layer_self(layer_name):
            return float(self_time[layer == layer_ids[layer_name]].sum())

        def total(field, *names):
            return float(s[field][select(*names)].sum())

        backtraces = (
            "characteristics.backtrace",
            "characteristics.backtrace_batch",
            "characteristics.backtrace_times",
        )
        origins = total("n1", *backtraces)
        hermite = (
            "quadrature.HermiteAntiderivative.__call__",
            "quadrature.HermiteAntiderivative.derivative",
        )
        hermite_calls = float(select(*hermite).sum())

        solve = ids["wellposed.solve_semiglobal"]
        inner = select("wellposed.compute_delta", "wellposed.local_fixed_point") & (parent_name == solve)
        solve_s = busy("wellposed.solve_semiglobal")

        # solution-map applications: one backtrace_times per map, attributed
        # to the nearest probing or Picard ancestor
        probe_id, picard_id = ids["wellposed.compute_delta"], ids["wellposed.local_fixed_point"]
        probe_maps = picard_maps = 0
        for idx in np.nonzero(select("characteristics.backtrace_times"))[0]:
            p = parent[idx]
            while p >= 0 and name[p] not in (probe_id, picard_id):
                p = parent[p]
            if p >= 0:
                if name[p] == probe_id:
                    probe_maps += 1
                else:
                    picard_maps += 1

        upwind_s = busy("oracle.simulate_upwind")
        csv_s = busy("fields.SolutionField.to_csv")
        csv_bytes = total("n1", "fields.SolutionField.to_csv")
        backtrace_s = busy(*backtraces)
        return {
            "characteristics.busy_s": layer_busy("characteristics"),
            "characteristics.self_s": layer_self("characteristics"),
            "characteristics.origins": origins,
            "characteristics.boundary_origins": total("n2", *backtraces),
            "characteristics.us_per_origin": 1e6 * backtrace_s / origins if origins else 0.0,
            "characteristics.crossing_s": busy("characteristics.crossing_time"),
            "quadrature.hermite_calls": hermite_calls,
            "quadrature.hermite_points": total("n1", *hermite),
            "quadrature.busy_s": layer_busy("quadrature"),
            "quadrature.calls_per_origin": hermite_calls / origins if origins else 0.0,
            "wellposed.solve_s": solve_s,
            "wellposed.probe_s": busy("wellposed.compute_delta"),
            "wellposed.picard_s": busy("wellposed.local_fixed_point"),
            "wellposed.assembly_s": solve_s - float(dur[inner].sum()),
            "wellposed.segments": total("n1", "wellposed.solve_semiglobal"),
            "wellposed.picard_iters": total("n1", "wellposed.local_fixed_point"),
            "wellposed.probe_maps": float(probe_maps),
            "wellposed.picard_maps": float(picard_maps),
            "control.synthesize_s": busy("control.synthesize"),
            "control.verify_s": busy("control.verify_control"),
            "control.self_s": layer_self("control"),
            "control.synthesis_iters": total("n1", "control.synthesize"),
            "oracle.upwind_s": upwind_s,
            "oracle.upwind_steps": total("n1", "oracle.simulate_upwind"),
            "oracle.cell_updates_per_s": (
                total("n2", "oracle.simulate_upwind") / upwind_s if upwind_s else 0.0
            ),
            "fields.to_csv_s": csv_s,
            "fields.csv_bytes": csv_bytes,
            "fields.csv_bytes_per_s": csv_bytes / csv_s if csv_s else 0.0,
            "lintransport.derivative_s": busy("lintransport.derivative_fields"),
            "lintransport.solve_calls": float(select("lintransport.solve_linear_transport").sum()),
            "lintransport.sweep_points": total("n1", "lintransport.solve_linear_transport"),
            "model.calls": float(layer_top("model").sum()),
            "model.busy_s": layer_busy("model"),
            "cli.self_s": layer_self("cli"),
        }
