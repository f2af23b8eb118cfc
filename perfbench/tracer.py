"""Per-layer tracing of skewmori from outside the package.

`Tracer.install` replaces the public functions of `linalg`, `cones`,
`chambers`, `geometry`, `pfaffian` and `verify` (plus the few private
helpers that carry a phase of the chamber computation) with wrappers, and
`Tracer.uninstall` puts the originals back.  A function is replaced under
every name any skewmori module binds it to, because `cones`, `chambers` and
`pfaffian` import `dot` by name; methods, classmethods and properties are
replaced on their class, and the check functions held in `verify.CRITERIA`
are replaced in that list.

Each wrapped call is a span.  Spans are aggregated as they close, by name
and by (parent, child) edge, rather than kept one by one: a single A(8)
decomposition opens about a million of them.  A span's self time is its
duration minus the durations of the wrapped spans it directly encloses.
`linalg.dot` is only counted, not timed, so its time stays in its caller's
self time; timing it would double the cost of tracing.

A target the package no longer has is skipped and listed in `missing`, so
the benchmark keeps running when a later version moves a helper; the
metrics that depend on it then read 0.
"""

from __future__ import annotations

import importlib
import sys
import threading
from time import perf_counter

# (span name, module, attribute).  An attribute "Class.name" is a method,
# classmethod or property of that class.
SPANS = [
    ("linalg.rref", "skewmori.linalg", "rref"),
    ("linalg.det", "skewmori.linalg", "det"),
    ("cones.double_description", "skewmori.cones", "_double_description"),
    ("cones.from_inequalities", "skewmori.cones", "Cone.from_inequalities"),
    ("cones.contains", "skewmori.cones", "Cone.contains"),
    ("cones.dim", "skewmori.cones", "Cone.dim"),
    ("chambers.gkz_chambers", "skewmori.chambers", "gkz_chambers"),
    ("chambers.canonical", "skewmori.chambers", "_canonical_chamber"),
    ("chambers.signature", "skewmori.chambers", "sbl_signature"),
    ("chambers.regions", "skewmori.chambers", "Decomposition.regions"),
    ("geometry.movable_cone", "skewmori.geometry", "movable_cone"),
    ("geometry.dual_to", "skewmori.geometry", "divisor_cone_dual_to"),
    ("geometry.dual_to", "skewmori.geometry", "curve_cone_dual_to"),
    ("pfaffian.sub_pfaffian", "skewmori.pfaffian", "sub_pfaffian"),
    ("pfaffian.vanishing_order", "skewmori.pfaffian", "vanishing_order"),
    ("pfaffian.secant_sample", "skewmori.pfaffian", "secant_sample"),
    ("pfaffian.terracini_dim", "skewmori.pfaffian", "terracini_dim"),
    ("pfaffian.wedge_power", "skewmori.pfaffian", "wedge_power"),
    ("pfaffian.pfaffian_value", "skewmori.pfaffian", "pfaffian_value"),
]

# Calls that are counted but not timed.
COUNTERS = [
    ("linalg.dot", "skewmori.linalg", "dot"),
    ("cones.from_generators", "skewmori.cones", "Cone.from_generators"),
    ("chambers.hyperplanes_spanned_by", "skewmori.cones", "hyperplanes_spanned_by"),
]


class _Frames(threading.local):
    def __init__(self):
        self.stack = []


class Tracer:
    """Installs the wrappers and accumulates what they record.

    ``spans`` maps a span name to [calls, total seconds, self seconds];
    ``edges`` maps (parent name or None, child name) to [calls, seconds];
    ``counts`` holds plain event counts.
    """

    def __init__(self):
        self.spans = {}
        self.edges = {}
        self.counts = {}
        self.missing = []
        self._frames = _Frames()
        self._undo = []

    # -- recording -------------------------------------------------------

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def _span(self, name, fn, after=None):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        frames = self._frames
        edges = self.edges

        def wrapper(*args, **kwargs):
            stack = frames.stack
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                key = (parent[0] if parent else None, name)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0]
                edge[0] += 1
                edge[1] += dur
            if after is not None:
                after(result, key[0])
            return result

        return wrapper

    def _counter(self, name, fn, after=None):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        if after is None:
            def wrapper(*args, **kwargs):
                stat[0] += 1
                return fn(*args, **kwargs)
            return wrapper

        def hooked(*args, **kwargs):
            stat[0] += 1
            result = fn(*args, **kwargs)
            after(result, None)
            return result
        return hooked

    def _subset_cone(self, fn):
        """Count calls, and misses: the calls that had to build their cone."""
        calls = self.spans.setdefault("chambers.subset_cone", [0, 0.0, 0.0])
        built = self.spans.setdefault("cones.from_generators", [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            calls[0] += 1
            before = built[0]
            result = fn(*args, **kwargs)
            if built[0] != before:
                self.count("chambers.subset_cone.misses")
            return result
        return wrapper

    # Hooks that turn results into the counts the metrics need.

    def _after_contains(self, result, parent):
        if result:
            self.count("cones.contains.true")

    def _after_gkz(self, result, parent):
        self.count("chambers.chambers", len(result.chambers))

    def _after_canonical(self, result, parent):
        if parent == "chambers.gkz_chambers":
            self.count("chambers.cells")

    def _after_hyperplanes(self, result, parent):
        self.count("chambers.hyperplanes", len(result))

    # -- installing ------------------------------------------------------

    def install(self):
        """Wrap every target; call `uninstall` to restore the originals."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        importlib.import_module("skewmori.cli")
        after = {
            "cones.contains": self._after_contains,
            "chambers.gkz_chambers": self._after_gkz,
            "chambers.canonical": self._after_canonical,
            "chambers.hyperplanes_spanned_by": self._after_hyperplanes,
        }
        for name, module, attr in SPANS:
            self._wrap(module, attr, lambda fn, n=name: self._span(n, fn, after.get(n)))
        for name, module, attr in COUNTERS:
            self._wrap(module, attr, lambda fn, n=name: self._counter(n, fn, after.get(n)))
        self._wrap("skewmori.chambers", "VectorConfiguration.subset_cone", self._subset_cone)
        self._wrap_criteria()

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, module_name, attr, make):
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            original = cls.__dict__.get(meth) if cls is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                return
            if isinstance(original, classmethod):
                wrapped = classmethod(make(original.__func__))
            elif isinstance(original, property):
                wrapped = property(make(original.fget))
            else:
                wrapped = make(original)
            self._undo.append((cls, meth, original))
            setattr(cls, meth, wrapped)
            return
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapped = make(original)
        # Replace the function wherever a skewmori module looks it up.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("skewmori"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def _wrap_criteria(self):
        verify = sys.modules["skewmori.verify"]
        criteria = getattr(verify, "CRITERIA", None)
        if criteria is None:
            self.missing.append("skewmori.verify.CRITERIA")
            return
        wrapped = [c[:3] + (self._span(f"verify.{c[0]}", c[3]),) + c[4:] for c in criteria]
        self._undo.append((verify, "CRITERIA", criteria))
        verify.CRITERIA = wrapped

    # -- reading ---------------------------------------------------------

    def dump(self):
        """Everything recorded, as plain JSON-ready data."""
        return _as_json(self.spans, self.edges, self.counts, self.missing)


def _as_json(spans, edges, counts, missing):
    return {
        "spans": {k: list(v) for k, v in sorted(spans.items())},
        "edges": [[p, c, n, s] for (p, c), (n, s) in sorted(
            edges.items(), key=lambda kv: (kv[0][0] or "", kv[0][1]))],
        "counts": dict(sorted(counts.items())),
        "missing": sorted(set(missing)),
    }


def merge(dumps):
    """Sum several `Tracer.dump` results (for example one per traced op)."""
    spans, edges, counts, missing = {}, {}, {}, []
    for d in dumps:
        for k, values in d["spans"].items():
            s = spans.setdefault(k, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                s[i] += v
        for p, c, n, sec in d["edges"]:
            e = edges.setdefault((p, c), [0, 0.0])
            e[0] += n
            e[1] += sec
        for k, v in d["counts"].items():
            counts[k] = counts.get(k, 0) + v
        missing += d["missing"]
    return _as_json(spans, edges, counts, missing)


def layer_metrics(dump, ops, check_names):
    """Per-op per-layer metrics from a merged dump of `ops` traced ops."""
    spans, counts = dump["spans"], dump["counts"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0] / ops

    def own(name):
        return spans.get(name, [0, 0.0, 0.0])[2] / ops

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1] / ops

    def counted(name):
        return counts.get(name, 0) / ops

    def ratio(num, den):
        return num / den if den else 0.0

    cells = counted("chambers.cells")
    n_chambers = counted("chambers.chambers")
    subset_calls = calls("chambers.subset_cone")
    misses = counted("chambers.subset_cone.misses")
    m = {
        "linalg.dot.calls": calls("linalg.dot"),
        "linalg.rref.calls": calls("linalg.rref"),
        "linalg.rref.self_s": own("linalg.rref"),
        "linalg.det.calls": calls("linalg.det"),
        "linalg.det.self_s": own("linalg.det"),
        "cones.double_description.calls": calls("cones.double_description"),
        "cones.double_description.self_s": own("cones.double_description"),
        "cones.from_inequalities.calls": calls("cones.from_inequalities"),
        "cones.contains.calls": calls("cones.contains"),
        "cones.contains.self_s": own("cones.contains"),
        "cones.contains.true_ratio": ratio(counted("cones.contains.true"),
                                           calls("cones.contains")),
        "cones.dim.self_s": own("cones.dim"),
        "chambers.hyperplanes": counted("chambers.hyperplanes"),
        "chambers.cells": cells,
        "chambers.chambers": n_chambers,
        "chambers.chamber_yield": ratio(n_chambers, cells),
        "chambers.split.self_s": own("chambers.gkz_chambers"),
        "chambers.canonical.calls": calls("chambers.canonical"),
        "chambers.canonical.self_s": own("chambers.canonical"),
        "chambers.signature.calls": calls("chambers.signature"),
        "chambers.signature.self_s": own("chambers.signature"),
        "chambers.subset_cone.misses": misses,
        "chambers.subset_cone.hit_ratio": ratio(subset_calls - misses, subset_calls),
        "chambers.regions.self_s": own("chambers.regions"),
        "geometry.movable_cone.self_s": own("geometry.movable_cone"),
        "geometry.dual_to.self_s": own("geometry.dual_to"),
        "pfaffian.sub_pfaffian.self_s": own("pfaffian.sub_pfaffian"),
        "pfaffian.vanishing_order.calls": calls("pfaffian.vanishing_order"),
        "pfaffian.vanishing_order.self_s": own("pfaffian.vanishing_order"),
        "pfaffian.secant_sample.self_s": own("pfaffian.secant_sample"),
        "pfaffian.terracini_dim.self_s": own("pfaffian.terracini_dim"),
        "pfaffian.wedge_power.self_s": own("pfaffian.wedge_power"),
        "pfaffian.pfaffian_value.self_s": own("pfaffian.pfaffian_value"),
        "verify.decompositions": calls("chambers.gkz_chambers"),
    }
    for check in check_names:
        m[f"verify.{check}.s"] = total(f"verify.{check}")
    return m
