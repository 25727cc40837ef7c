"""Spans and counts at reesval's layer boundaries, recorded from outside.

The tracer replaces public functions and methods of the reesval modules
with wrappers that record a span per call: name, start, end, parent span
and pass. `from ... import` copies a function into other modules, and
methods live in class dicts, so every binding of an original anywhere in a
`reesval.*` module dict or class dict is replaced, and `install` fails if
one is left. `restore` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from time import perf_counter

# (span name, module, class or None, attribute). Every `check_*` function
# of reesval.verify is added as "verify.check".
TARGETS = [
    ("cli.parse_session", "cli", None, "parse_session"),
    ("cli.run", "cli", None, "run"),
    ("symbolic.symbolic_power", "symbolic", None, "symbolic_power"),
    ("symbolic.ord_at", "symbolic", None, "ord_at"),
    ("rings.extended_rees_presentation", "rings", None, "extended_rees_presentation"),
    ("rings.associated_graded", "rings", None, "associated_graded"),
    ("rings.lift_to_rees", "rings", None, "lift_to_rees"),
    ("rings.reduce", "rings", "AffineAlgebra", "reduce"),
    ("multiplicity.length_sampler", "multiplicity", None, "length_sampler"),
    ("multiplicity.hilbert_series_monomial", "multiplicity", None, "hilbert_series_monomial"),
    ("multiplicity.krull_dim", "multiplicity", None, "krull_dim"),
    ("multiplicity.local_multiplicity_via_gr", "multiplicity", None, "local_multiplicity_via_gr"),
    ("monomial.membership_oracle_caratheodory", "monomial", None, "membership_oracle_caratheodory"),
    ("monomial.newton_polyhedron", "monomial", None, "newton_polyhedron"),
    ("monomial.monomial_multiplicity", "monomial", None, "monomial_multiplicity"),
    ("ideals.gb", "ideals", "Ideal", "gb"),
    ("ideals.quotient", "ideals", "Ideal", "quotient"),
    ("ideals.saturate", "ideals", "Ideal", "saturate"),
    ("ideals.intersect", "ideals", "Ideal", "intersect"),
    ("ideals.eliminate", "ideals", "Ideal", "eliminate"),
    ("ideals.radical_contains", "ideals", "Ideal", "radical_contains"),
    ("ideals.power", "ideals", "Ideal", "power"),
    ("ideals.contains_ideal", "ideals", "Ideal", "contains_ideal"),
    ("ideals.kernel_of_map", "ideals", None, "kernel_of_map"),
    ("groebner.buchberger", "groebner", None, "buchberger"),
    ("groebner.s_polynomial", "groebner", None, "s_polynomial"),
    ("groebner.normal_form", "groebner", None, "normal_form"),
    ("poly.parse", "poly", "PolyRing", "parse"),
] + [
    ("poly.arith", "poly", "Polynomial", attr)
    for attr in ("__add__", "__sub__", "__rsub__", "__mul__", "__pow__", "mul_term")
]

MODULES = ("cli", "verify", "symbolic", "rings", "multiplicity", "monomial", "ideals", "groebner", "poly")

# Counts that must repeat exactly from one pass to the next.
EXACT_COUNTS = ("ideals.saturate.steps", "groebner.basis_len.max", "groebner.basis_len.sum",
                "groebner.s_reduced", "groebner.s_useful", "ideals.gb.hits", "symbolic.hits")


class CoverageError(RuntimeError):
    pass


class _Pass:
    """Counts and self times of one pass."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counts = dict.fromkeys(EXACT_COUNTS, 0)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []  # (id, name, start, end, parent id, pass id)
        self.passes = []
        self._stack = []  # [span id, start, time covered by children]
        self._last_spoly = None
        self._bindings = []  # (owner, attribute, original)
        self._wrappers = {}  # id(original) -> (original, wrapper)

    # -- spans -----------------------------------------------------------

    def begin_pass(self):
        self.passes.append(_Pass())

    def _call(self, name, fn, args, kwargs):
        cur = self.passes[-1]
        sid = len(self.spans)
        self.spans.append(None)
        before = (len(self.spans), cur.calls.get("groebner.buchberger", 0))
        frame = [sid, perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - frame[1]
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                parent[2] += duration
            self.spans[sid] = (sid, name, frame[1], end, parent[0] if parent else None,
                               len(self.passes) - 1)
            cur.calls[name] = cur.calls.get(name, 0) + 1
            cur.self_s[name] = cur.self_s.get(name, 0.0) + duration - frame[2]
        self._count(cur, name, args, result, before)
        return result

    def _count(self, cur, name, args, result, before):
        counts = cur.counts
        if name == "groebner.s_polynomial":
            self._last_spoly = result
        elif name == "groebner.normal_form" and args[0] is self._last_spoly:
            counts["groebner.s_reduced"] += 1
            counts["groebner.s_useful"] += not result.is_zero()
        elif name == "groebner.buchberger":
            counts["groebner.basis_len.sum"] += len(result)
            counts["groebner.basis_len.max"] = max(counts["groebner.basis_len.max"], len(result))
        elif name == "ideals.saturate":
            counts["ideals.saturate.steps"] += result[1]
        elif name == "ideals.gb":
            counts["ideals.gb.hits"] += cur.calls.get("groebner.buchberger", 0) == before[1]
        elif name == "symbolic.symbolic_power":
            counts["symbolic.hits"] += len(self.spans) == before[0]

    # -- installing and removing the wrappers ------------------------------

    def _targets(self):
        mods = {m: sys.modules[f"{self.package}.{m}"] for m in MODULES}
        targets = list(TARGETS) + [
            ("verify.check", "verify", None, attr)
            for attr, fn in vars(mods["verify"]).items()
            if attr.startswith("check_") and inspect.isfunction(fn)
            and fn.__module__ == mods["verify"].__name__
        ]
        for name, mod, cls, attr in targets:
            owner = getattr(mods[mod], cls) if cls else mods[mod]
            yield name, vars(owner)[attr]

    def _namespaces(self):
        """Every reesval module and every class defined in one, once each."""
        prefix = self.package + "."
        owners = {}
        for modname, mod in list(sys.modules.items()):
            if modname != self.package and not modname.startswith(prefix):
                continue
            owners[id(mod)] = mod
            for value in list(vars(mod).values()):
                if inspect.isclass(value) and value.__module__.startswith(prefix):
                    owners[id(value)] = value
        return list(owners.values())

    def install(self):
        for name, fn in self._targets():
            if id(fn) not in self._wrappers:
                self._wrappers[id(fn)] = (fn, self._wrap(name, fn))
        # _wrappers keeps every original alive, so its id names it uniquely
        for owner in self._namespaces():
            for attr, value in list(vars(owner).items()):
                if id(value) in self._wrappers:
                    setattr(owner, attr, self._wrappers[id(value)][1])
                    self._bindings.append((owner, attr, value))
        left = self._reachable(lambda v: id(v) in self._wrappers)
        if left:
            self.restore()
            raise CoverageError(f"unwrapped originals still reachable: {left}")

    def restore(self):
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()
        wrappers = {id(w) for _, w in self._wrappers.values()}
        left = self._reachable(lambda v: id(v) in wrappers)
        if left:
            raise CoverageError(f"wrappers still installed after restore: {left}")

    def _reachable(self, match):
        return sorted(
            f"{owner.__name__}.{attr}"
            for owner in self._namespaces()
            for attr, value in list(vars(owner).items())
            if match(value)
        )

    def _wrap(self, name, fn):
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, fn, args, kwargs)

        return wrapper

    # -- results ---------------------------------------------------------

    def pass_counts(self, i):
        p = self.passes[i]
        return {**{f"{k}.calls": v for k, v in sorted(p.calls.items())}, **p.counts}

    def metrics(self, per_layer, overhead_ratio):
        """Per-layer metric values: counts of the last pass, median self times."""
        counts = self.pass_counts(-1)

        def median_self(match):
            return statistics.median(
                sum(s for n, s in p.self_s.items() if match(n)) for p in self.passes
            )

        def ratio(num, den):
            return num / den if den else 0.0

        derived = {
            "groebner.pair_useful_ratio": ratio(counts["groebner.s_useful"],
                                                counts["groebner.s_reduced"]),
            "ideals.gb.hit_ratio": ratio(counts["ideals.gb.hits"],
                                         counts.get("ideals.gb.calls", 0)),
            "symbolic.cache_hit_ratio": ratio(counts["symbolic.hits"],
                                              counts.get("symbolic.symbolic_power.calls", 0)),
            "trace.overhead_ratio": overhead_ratio,
        }
        out = {}
        for name, unit in per_layer:
            if name in derived:
                value = derived[name]
            elif name in counts:
                value = counts[name]
            elif name.endswith(".calls"):
                value = 0
            elif name.endswith(".self_s"):
                span = name[: -len(".self_s")]
                if span in MODULES:
                    value = median_self(lambda n: n.split(".")[0] == span)
                else:
                    value = median_self(lambda n: n == span)
            else:
                raise KeyError(f"no rule for per-layer metric {name}")
            out[name] = {"value": value, "unit": unit}
        return out

    def dump(self, path, env):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "fields": ["id", "name", "start", "end", "parent", "pass"],
                       "spans": self.spans}, fh, separators=(",", ":"))
