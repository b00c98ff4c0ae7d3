"""Span tracer for the podforge benchmark.

The tracer wraps the public functions of each podforge layer from outside the
package: every module binding of a wrapped function (``from .groebner import
hilbert_data`` copies it into ``constructions``, ``verify``, ``models``,
``cli`` and ``acceptance``) and every module-level dict value holding it is
replaced by the same wrapper, and ``RingMap.__call__`` is wrapped on the
class.  ``uninstall`` puts every original back, so untraced timings run the
pristine code.

A span is ``[name, start, end, parent, op, extra]``: ``parent`` is the index
of the enclosing span (-1 at top level), ``op`` the benchmark op it belongs
to, ``extra`` the counts a probe read off the result at the span boundary.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

# podforge layers whose public functions are wrapped, in dependency order.
# `fields` and the Polynomial methods are too fine-grained to wrap without
# distorting the timing; their cost stays inside their callers' self time.
LAYERS = ("rings", "linalg", "groebner", "models", "duality", "constructions",
          "verify", "cli", "acceptance")
# scalar helpers called once per field operation, excluded for the same reason
FINE_GRAINED = frozenset({"models.sum_"})
RINGMAP_SPAN = "rings.RingMap"


def _basis_counts(args, result):
    return {"basis_len": len(result),
            "max_degree": max((f.wdegree() for f in result), default=0)}


def _matrix_dim(args, result):
    return {"dim": len(args[0])}


def _points(args, result):
    return {"points": len(result)}


PROBES = {
    "groebner.buchberger": _basis_counts,
    "linalg.charpoly": _matrix_dim,
    "verify.solve_zero_dimensional": _points,
    "verify.real_legs": _points,
}


def wrap_targets():
    """(span name, original function) for every wrapped public function."""
    from podforge.rings import RingMap

    out = []
    for layer in LAYERS:
        mod = importlib.import_module("podforge." + layer)
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or name in FINE_GRAINED):
                continue
            out.append((name, obj))
    out.append((RINGMAP_SPAN, RingMap.__call__))
    return out


def _podforge_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "podforge" or n.startswith("podforge."))]


def _bindings(originals):
    """Every (container, key, function, label) where a podforge module binds
    one of `originals` (a dict id -> function): module attributes and values
    of module-level dicts."""

    def bound(v):
        return originals.get(id(v), _bindings) is v

    found, seen = [], set()
    for mod in _podforge_modules():
        for attr, val in list(vars(mod).items()):
            if attr == "__builtins__":
                continue
            if bound(val):
                found.append((mod, attr, val, f"{mod.__name__}.{attr}"))
            elif isinstance(val, dict) and id(val) not in seen:
                # a dict imported into several modules is patched once
                seen.add(id(val))
                for key, item in val.items():
                    if bound(item):
                        found.append((val, key, item, f"{mod.__name__}.{attr}[{key!r}]"))
    return found


class Tracer:
    """Wraps the functions of `wrap_targets()` while installed and records
    their spans in `spans`; `op` tags the spans of the current op."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.targets = wrap_targets()
        self._ringmap_call = self.targets[-1][1]
        self._originals = {id(fn): fn for _, fn in self.targets}
        self._wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.targets}
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, probe = self.spans, self.stack, PROBES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if probe is not None:
                span[5] = probe(args, result)
            return result

        return traced

    def install(self):
        from podforge.rings import RingMap

        for container, key, original, _label in _bindings(self._originals):
            self._set(container, key, self._wrappers[id(original)])
            self._patched.append((container, key, original))
        RingMap.__call__ = self._wrappers[id(self._ringmap_call)]
        self._patched.append((RingMap, "__call__", self._ringmap_call))
        missing = self.unwrapped()
        if missing:
            self.uninstall()
            raise RuntimeError("tracer left unwrapped originals: " + ", ".join(missing))

    def uninstall(self):
        for container, key, original in reversed(self._patched):
            self._set(container, key, original)
        self._patched.clear()

    @staticmethod
    def _set(container, key, value):
        if isinstance(container, dict):
            container[key] = value
        else:
            setattr(container, key, value)

    def unwrapped(self):
        """Labels of every podforge binding that still holds an original."""
        from podforge.rings import RingMap

        labels = [label for *_, label in _bindings(self._originals)]
        if RingMap.__call__ is not self._wrappers[id(self._ringmap_call)]:
            labels.append("podforge.rings.RingMap.__call__")
        return labels

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        if self.stack:
            raise RuntimeError("cannot take spans while a span is open")
        out = list(self.spans)
        self.spans.clear()
        return out


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


class SpanStats:
    """Per-name call counts, self time, non-nested total time and probe
    counts over one list of spans."""

    def __init__(self, spans):
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        self.calls, self.self_s, self.total_s, self.extra = {}, {}, {}, {}
        for i, s in enumerate(spans):
            name, dur = s[0], s[2] - s[1]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child[i]
            if not self._nested_in_same(spans, i):
                self.total_s[name] = self.total_s.get(name, 0.0) + dur
            if s[5]:
                self.extra.setdefault(name, []).append(s[5])

    @staticmethod
    def _nested_in_same(spans, i):
        name, p = spans[i][0], spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    def self_where(self, pred):
        return sum((v for k, v in self.self_s.items() if pred(k)), 0.0)

    def extra_values(self, name, key):
        return [e[key] for e in self.extra.get(name, ())]


def _calls(name):
    return lambda st: st.calls.get(name, 0)


def _self(name):
    return lambda st: st.self_s.get(name, 0.0)


def _total(name):
    return lambda st: st.total_s.get(name, 0.0)


def _slice_yield(st):
    """Points found per attempted slice solve (one multiplication_data call
    per hyperplane slice, on both the GF(p) and the rational path)."""
    slices = st.calls.get("verify.multiplication_data", 0)
    points = (sum(st.extra_values("verify.solve_zero_dimensional", "points"))
              + sum(st.extra_values("verify.real_legs", "points")))
    return points / slices if slices else 0.0


# (metric, unit, better, value of SpanStats over the timed ops).  The
# `models.build.self_s` and `trace.overhead_frac` rows are filled in by the
# worker: model building happens in set-up, the overhead needs both runs.
PER_LAYER = [
    ("groebner.buchberger.calls", "count", "lower", _calls("groebner.buchberger")),
    ("groebner.buchberger.self_s", "s", "lower", _self("groebner.buchberger")),
    ("groebner.buchberger.basis_len", "count", "lower",
     lambda st: sum(st.extra_values("groebner.buchberger", "basis_len"))),
    ("groebner.buchberger.max_degree", "count", "lower",
     lambda st: max(st.extra_values("groebner.buchberger", "max_degree"), default=0)),
    ("groebner.eliminate.calls", "count", "lower", _calls("groebner.eliminate")),
    ("groebner.eliminate.self_s", "s", "lower", _self("groebner.eliminate")),
    ("groebner.eliminate.total_s", "s", "lower", _total("groebner.eliminate")),
    ("groebner.hilbert_data.calls", "count", "lower", _calls("groebner.hilbert_data")),
    ("groebner.hilbert_data.self_s", "s", "lower", _self("groebner.hilbert_data")),
    ("groebner.reduce_by_basis.calls", "count", "lower", _calls("groebner.reduce_by_basis")),
    ("groebner.reduce_by_basis.self_s", "s", "lower", _self("groebner.reduce_by_basis")),
    ("groebner.normal_form.self_s", "s", "lower", _self("groebner.normal_form")),
    ("groebner.standard_monomials.self_s", "s", "lower", _self("groebner.standard_monomials")),
    ("linalg.charpoly.calls", "count", "lower", _calls("linalg.charpoly")),
    ("linalg.charpoly.self_s", "s", "lower", _self("linalg.charpoly")),
    ("linalg.charpoly.max_dim", "count", "lower",
     lambda st: max(st.extra_values("linalg.charpoly", "dim"), default=0)),
    ("linalg.rref.self_s", "s", "lower", _self("linalg.rref")),
    ("linalg.mat_inverse.self_s", "s", "lower", _self("linalg.mat_inverse")),
    ("verify.multiplication_data.self_s", "s", "lower", _self("verify.multiplication_data")),
    ("verify.solve_zero_dimensional.calls", "count", "lower",
     _calls("verify.solve_zero_dimensional")),
    ("verify.slice_yield", "points/slice", "higher", _slice_yield),
    ("verify.roots_mod_p.self_s", "s", "lower", _self("verify.roots_mod_p")),
    ("verify.isolate_real_roots.self_s", "s", "lower", _self("verify.isolate_real_roots")),
    ("verify.refine_root.self_s", "s", "lower", _self("verify.refine_root")),
    ("verify.sturm_sequence.self_s", "s", "lower", _self("verify.sturm_sequence")),
    ("constructions.sym_projection.total_s", "s", "lower", _total("constructions.sym_projection")),
    ("constructions.rho_preimage.total_s", "s", "lower", _total("constructions.rho_preimage")),
    ("constructions.create_infinity_pod.self_s", "s", "lower",
     _self("constructions.create_infinity_pod")),
    ("constructions.duporcq_sixth_leg.total_s", "s", "lower",
     _total("constructions.duporcq_sixth_leg")),
    ("duality.dual_space.self_s", "s", "lower", _self("duality.dual_space")),
    ("rings.RingMap.calls", "count", "lower", _calls(RINGMAP_SPAN)),
    ("rings.RingMap.self_s", "s", "lower", _self(RINGMAP_SPAN)),
    ("cli.run.self_s", "s", "lower", lambda st: st.self_where(lambda n: n.startswith("cli."))),
    ("models.build.self_s", "s", "lower", None),
    ("trace.overhead_frac", "ratio", "lower", None),
]
