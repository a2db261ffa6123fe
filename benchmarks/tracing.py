"""Per-layer tracing from outside the package.

The tracer replaces each named difftan function, at every module binding
that refers to it, with a wrapper; install() and uninstall() swap them in
and out so untraced cycles run the original code.  Wrapped calls become
spans (name, start, end, parent, op id) kept in memory; the hottest inner
calls are only counted, to bound memory and overhead, and their time is
still charged to the enclosing span as child time.  Self time is a span's
duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

# (module, qualified name) in the order the metrics are reported.
SPANNED = (
    ("quad_field", "cf_expand"),
    ("quad_field", "gl2z_equivalent"),
    ("quad_field", "parse_quadratic"),
    ("quad_field", "mobius_witness"),
    ("polynomials", "MultiPoly.substitute"),
    ("polynomials", "compose_with"),
    ("polynomials", "parse_polynomial"),
    ("orbit_space", "validate_lift"),
    ("orbit_space", "random_valid_lift"),
    ("orbit_space", "rank_obstruction"),
    ("orbit_space", "pushforward"),
    ("orbit_space", "theorem2_dim"),
    ("torus", "hom_nonconstant"),
    ("torus", "diffeomorphic"),
    ("functor_core", "tangent"),
    ("spaces", "parse_space"),
    ("cli", "main"),
    ("cli", "_build_parser"),
    ("cli", "_emit_json"),
)
COUNTED = (
    ("quad_field", "squarefree_split"),
    ("polynomials", "MultiPoly.mul"),
    ("polynomials", "MultiPoly.add"),
)
_METHODS = {"mul": ("__mul__", "__rmul__"), "add": ("__add__",), "substitute": ("substitute",)}


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports."""
    names = []
    for module, func in SPANNED + COUNTED:
        names += [f"{module}.{func}.calls", f"{module}.{func}.self_ms"]
    return names + [
        "polynomials.MultiPoly.mul.term_products",
        "orbit_space.validate_lift.distinct_ratio",
    ]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent, op)
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.term_products = 0
        self.lifts_seen: set = set()
        self.op = 0
        # Open spans: [name, start_ns, child_ns, index]; index into spans.
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- recording --

    def _open(self, name: str) -> list:
        parent = self._stack[-1][3] if self._stack else None
        self.spans.append((name, perf_counter_ns(), None, parent, self.op))
        frame = [name, self.spans[-1][1], 0, len(self.spans) - 1]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list):
        end = perf_counter_ns()
        self._stack.pop()
        name, start, child, index = frame
        self.spans[index] = (name, start, end, self.spans[index][3], self.op)
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + (end - start - child)
        if self._stack:
            self._stack[-1][2] += end - start

    def begin_op(self):
        self.op += 1
        return self._open("op")

    def end_op(self, frame):
        self._close(frame)

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_ns[name] = self.self_ns.get(name, 0) + elapsed
                if self._stack:
                    self._stack[-1][2] += elapsed

        return wrapper

    # -- installation --

    def prepare(self, mods):
        """Build every (owner, attribute, original, wrapper) patch once."""
        difftan = [m for key, m in sys.modules.items() if key == "difftan" or key.startswith("difftan.")]
        multipoly = mods.polynomials.MultiPoly
        patches = []
        for module, func in SPANNED + COUNTED:
            name = f"{module}.{func}"
            make = self._counted if (module, func) in COUNTED else self._spanned
            if func.startswith("MultiPoly."):
                attrs = _METHODS[func.split(".")[1]]
                original = multipoly.__dict__[attrs[0]]
                wrapper = make(name, original)
                if func == "MultiPoly.mul":
                    wrapper = self._with_term_products(wrapper)
                patches += [(multipoly, attr, original, wrapper) for attr in attrs]
                continue
            original = getattr(getattr(mods, module), func)
            wrapper = make(name, original)
            if func == "validate_lift":
                wrapper = self._with_distinct_lifts(wrapper)
            patches += [(owner, attr, original, wrapper)
                        for owner in difftan for attr, value in vars(owner).items() if value is original]
        self._patches = patches

    def _with_term_products(self, wrapper):
        def mul(a, b):
            self.term_products += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)
            return wrapper(a, b)

        return mul

    def _with_distinct_lifts(self, wrapper):
        def validate(lift, *args, **kwargs):
            self.lifts_seen.add((lift.m, lift.n, lift.components))
            return wrapper(lift, *args, **kwargs)

        return validate

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- results --

    def metrics(self, traced_ops: int) -> dict[str, float]:
        """Calls and self time per traced query, plus the two ratios."""
        ops = max(traced_ops, 1)
        out = {}
        for module, func in SPANNED + COUNTED:
            name = f"{module}.{func}"
            out[f"{name}.calls"] = self.calls.get(name, 0) / ops
            out[f"{name}.self_ms"] = self.self_ns.get(name, 0) / 1e6 / ops
        out["polynomials.MultiPoly.mul.term_products"] = self.term_products / ops
        validations = self.calls.get("orbit_space.validate_lift", 0)
        out["orbit_space.validate_lift.distinct_ratio"] = (
            len(self.lifts_seen) / validations if validations else 1.0
        )
        return out

    def write(self, path):
        """Spans as JSON lines: [name, start_ns, end_ns, parent, op]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
