"""Outside-in tracing of fgl: a span or a counter around each public entry point.

Nothing inside ``fgl`` is edited. ``LayerTrace.install`` replaces every
binding of each traced function in the loaded ``fgl`` modules and classes
(a name imported with ``from .linalg import rank`` is a second binding of
the same function object) and ``uninstall`` puts the originals back.

A span records calls and self time: its inclusive time minus the time of
the wrapped calls made inside it. A counter records calls only; it is used
where a call is too cheap and too frequent to time.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

SPAN, COUNT = "span", "count"

# (kind, metric prefix, targets); a span reports <prefix>_s and <prefix>_calls,
# a counter reports <prefix>_calls.
LAYERS = [
    (SPAN, "laws.build", ["fgl.laws:multiplicative_law", "fgl.laws:additive_law",
                          "fgl.laws:honda_law", "fgl.laws:lubin_tate_height2_law"]),
    (SPAN, "laws.n_series", ["fgl.laws:FormalGroupLaw.n_series"]),
    (SPAN, "laws.check_axioms", ["fgl.laws:FormalGroupLaw.check_axioms"]),
    (SPAN, "series.mul", ["fgl.series:TruncSeries.__mul__"]),
    (SPAN, "series.subst", ["fgl.series:TruncSeries.subst"]),
    (COUNT, "coeffring.mul", ["fgl.coeffring:CoeffElem.__mul__"]),
    (COUNT, "coeffring.invert", ["fgl.coeffring:CoeffElem.invert"]),
    (SPAN, "weierstrass.prepare", ["fgl.weierstrass:prepare"]),
    (SPAN, "weierstrass.divide", ["fgl.weierstrass:divide"]),
    (SPAN, "grouprings.ambient", ["fgl.grouprings:group_cohomology_ring"]),
    (SPAN, "grouprings.level", ["fgl.grouprings:level_ring"]),
    (SPAN, "grouprings.reduce", ["fgl.grouprings:FiniteAlgebra.reduce"]),
    (COUNT, "grouprings.invert", ["fgl.grouprings:FiniteAlgebra.invert_element"]),
    (SPAN, "tate.euler_class", ["fgl.tate:euler_class"]),
    (SPAN, "tate.localization", ["fgl.tate:localization_kernel"]),
    (SPAN, "tate.level_map", ["fgl.tate:level_to_tate_map"]),
    (SPAN, "tate.factor_check", ["fgl.tate:factor_invertibility_check"]),
    (SPAN, "linalg.rank", ["fgl.linalg:rank"]),
    (SPAN, "linalg.nullspace", ["fgl.linalg:nullspace"]),
    (SPAN, "linalg.mat_mul", ["fgl.linalg:mat_mul"]),
    (SPAN, "linalg.rref", ["fgl.linalg:rref"]),
    (SPAN, "deltaring.check_axioms", ["fgl.deltaring:DeltaRing.check_axioms"]),
    (COUNT, "deltaring.psi", ["fgl.deltaring:DeltaRing.psi"]),
    (SPAN, "deltaring.sheaf_eval", ["fgl.deltaring:sheaf_eval"]),
    (SPAN, "cli.run_job", ["fgl.cli:run_job"]),
    (SPAN, "cli.run_suite", ["fgl.cli:run_suite"]),
]


def resolve(target: str):
    """``"fgl.tate:euler_class"`` or ``"fgl.series:TruncSeries.__mul__"``."""
    module, _, path = target.partition(":")
    obj = sys.modules[module]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _namespaces():
    """Every fgl module and every class defined in one."""
    for name, module in list(sys.modules.items()):
        if name != "fgl" and not name.startswith("fgl."):
            continue
        yield module
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name:
                yield value


def rebind(original, replacement) -> list:
    """Point every fgl binding of ``original`` at ``replacement``.

    Returns the (namespace, name, original) triples needed to undo it.
    Raises LookupError when no binding was found, so a renamed entry point
    fails loudly instead of reading zero calls.
    """
    undo = []
    for ns in _namespaces():
        for name, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, name, replacement)
                undo.append((ns, name, original))
    if not undo:
        raise LookupError(f"no fgl binding of {original!r} found")
    return undo


def restore(undo: list) -> None:
    for ns, name, original in reversed(undo):
        setattr(ns, name, original)


class LayerTrace:
    """Self time and call counts per layer metric, accumulated until reset."""

    def __init__(self):
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self._stack = [0]  # time of wrapped child calls, per open span
        self._undo: list = []

    def reset(self) -> None:
        for kind, prefix, _ in LAYERS:
            self.calls[prefix] = 0
            if kind == SPAN:
                self.self_ns[prefix] = 0

    def install(self) -> None:
        self.reset()
        for kind, prefix, targets in LAYERS:
            make = self._span if kind == SPAN else self._counter
            for target in targets:
                original = resolve(target)
                self._undo += rebind(original, make(prefix, original))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def _span(self, prefix, fn):
        stack, self_ns, calls = self._stack, self.self_ns, self.calls

        def span(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                self_ns[prefix] += elapsed - stack.pop()
                calls[prefix] += 1
                stack[-1] += elapsed

        return span

    def _counter(self, prefix, fn):
        calls = self.calls

        def counter(*args, **kwargs):
            calls[prefix] += 1
            return fn(*args, **kwargs)

        return counter

    def metrics(self) -> dict[str, float]:
        out = {}
        for kind, prefix, _ in LAYERS:
            if kind == SPAN:
                out[prefix + "_s"] = self.self_ns[prefix] / 1e9
            out[prefix + "_calls"] = self.calls[prefix]
        return out
