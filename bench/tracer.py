"""Span tracer for traced benchmark passes.

The tracer rebinds gielab's public functions and methods, at every name
under which gielab's own modules look them up, to wrappers that record a
span (name, start, end, parent span, operation id) around each call and
update deterministic size counters.  Nothing under src/ is edited, and
`installed()` restores every binding on exit.

Spans live in flat arrays while the pass runs; `summary()` turns them
into per-name call counts, inclusive time and self time (a span's time
minus the time its child spans cover).
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from time import perf_counter

import gielab
from gielab import bundle, cli, eds, emt, exterior, gie, linalg, poly

MODULES = (gielab, cli, gie, eds, exterior, linalg, poly, bundle, emt)


def _bareiss_counts(tracer, result, args, kwargs):
    rows = args[0]
    if rows:
        tracer.count("linalg.bareiss_echelon.cells", len(rows) * len(rows[0]))
    bits = max((abs(x).bit_length() for row in result[0] for x in row), default=0)
    tracer.maximum("linalg.bareiss_echelon.max_bits", bits)


def _certificate_counts(tracer, result, args, kwargs):
    tracer.count("gie.jacobian_rank_certificate.fallbacks",
                 result.failed_level is not None)


def _insert_counts(tracer, result, args, kwargs):
    tracer.count("linalg.SparseEchelon.insert.kept", bool(result))
    if tracer.caller() == "eds.cartan_characters_by_expansion":
        tracer.count("eds.expansion_rows")


def _ideal_counts(tracer, result, args, kwargs):
    tracer.count("gie.gie_ideal.terms",
                 sum(len(g.coefficients) for g in result.generators))


def _nullspace_counts(tracer, result, args, kwargs):
    if tracer.caller() == "eds.polar_space":
        tracer.count("eds.polar_space.rows", len(args[0]))


def _pullback_counts(tracer, result, args, kwargs):
    tracer.count("gie.grassmann_pullback.terms",
                 sum(len(f.terms) for f in result.functions))


def _report_counts(tracer, result, args, kwargs):
    """Bytes of the written report, without its one timing line."""
    argv = args[0] if args else kwargs.get("argv")
    path = argv[argv.index("--output") + 1]
    with open(path) as fh:
        tracer.count("cli.report_bytes",
                     sum(len(line) for line in fh if '"wall_time_s"' not in line))


def _backend(args, kwargs):
    backend = kwargs.get("backend", args[2] if len(args) > 2 else "exact")
    return f"emt.verify_equivalence:{backend}"


# (span name, owner, attribute, counter hook, span-name chooser)
TARGETS = [
    ("cli.main", cli, "main", _report_counts, None),
    ("gie.construct_preimage", gie, "construct_preimage", None, None),
    ("gie.cartan_identity_residual", gie, "cartan_identity_residual", None, None),
    ("gie.gauss_map", gie, "gauss_map", None, None),
    ("gie.jacobian_rank_certificate", gie, "jacobian_rank_certificate",
     _certificate_counts, None),
    ("gie.gie_ideal", gie, "gie_ideal", _ideal_counts, None),
    ("gie.build_integral_flag", gie, "build_integral_flag", None, None),
    ("gie.gie_cartan_report", gie, "gie_cartan_report", None, None),
    ("gie.grassmann_pullback", gie, "grassmann_pullback", _pullback_counts, None),
    ("gie.GrassmannPullback.independent_differential_count", gie.GrassmannPullback,
     "independent_differential_count", None, None),
    ("eds.is_integral_element", eds, "is_integral_element", None, None),
    ("eds.cartan_characters_by_expansion", eds, "cartan_characters_by_expansion",
     None, None),
    ("eds.polar_space", eds, "polar_space", None, None),
    ("linalg.bareiss_echelon", linalg, "bareiss_echelon", _bareiss_counts, None),
    ("linalg.nullspace", linalg, "nullspace", _nullspace_counts, None),
    ("linalg.SparseEchelon.insert", linalg.SparseEchelon, "insert",
     _insert_counts, None),
    ("exterior.evaluate", exterior, "evaluate", None, None),
    ("exterior.wedge", exterior, "wedge", None, None),
    ("exterior.substitute", exterior, "substitute", None, None),
    ("poly.Polynomial.mul", poly.Polynomial, "__mul__", None, None),
    ("poly.Polynomial.partial", poly.Polynomial, "partial", None, None),
    ("poly.Polynomial.eval", poly.Polynomial, "eval", None, None),
    ("bundle.exterior_derivative", bundle, "exterior_derivative", None, None),
    ("emt.christoffel", emt, "christoffel", None, None),
    ("emt.christoffel_at", emt, "christoffel_at", None, None),
    ("emt.tensor_to_mform", emt, "tensor_to_mform", None, None),
    ("emt.covariant_exterior_derivative", emt, "covariant_exterior_derivative",
     None, None),
    ("emt.covariant_divergence", emt, "covariant_divergence", None, None),
    ("emt.verify_equivalence", emt, "verify_equivalence", None, _backend),
    ("emt.MetricChart.cholesky_at", emt.MetricChart, "cholesky_at", None, None),
]


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_outer = array("b")   # no enclosing span of the same name
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = {}
        self.op = -1
        self._stack = []
        self._active = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def count(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + int(value)

    def maximum(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def caller(self):
        """Name of the innermost open span, seen from a counter hook."""
        return self.names[self.span_name[self._stack[-1]]] if self._stack else None

    def wrap(self, name, fn, hook=None, name_of=None):
        fixed = self._id(name)
        ids, stack, active = self._id, self._stack, self._active
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        outer, starts, ends = self.span_outer, self.span_start, self.span_end

        def traced(*args, **kwargs):
            nid = fixed if name_of is None else ids(name_of(args, kwargs))
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            outer.append(active[nid] == 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            active[nid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                active[nid] -= 1
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if hook is not None:
                hook(self, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        undo = []
        try:
            for name, owner, attr, hook, name_of in TARGETS:
                original = getattr(owner, attr)
                wrapped = self.wrap(name, original, hook, name_of)
                holders = MODULES if owner in MODULES else (owner,)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapped)
                            undo.append((holder, key, original))
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

    def summary(self, speed=None):
        """({span name: {"calls", "s", "self_s"}}, top-level seconds).

        "s" sums only outermost spans of a name, so recursion is not
        counted twice; "self_s" subtracts the time of direct children.
        With `speed`, a span's time is multiplied by speed[its operation]."""
        n = len(self.span_name)
        dur = [(self.span_end[i] - self.span_start[i])
               * (speed[self.span_op[i]] if speed else 1.0) for i in range(n)]
        child = [0.0] * n
        top = 0.0
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
            else:
                top += dur[i]
        stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            st = stats[self.names[self.span_name[i]]]
            st["calls"] += 1
            st["self_s"] += dur[i] - child[i]
            if self.span_outer[i]:
                st["s"] += dur[i]
        return stats, top

    def spans(self):
        """Every span as (name, parent index, operation id, start, end)."""
        return [(self.names[self.span_name[i]], self.span_parent[i], self.span_op[i],
                 self.span_start[i], self.span_end[i])
                for i in range(len(self.span_name))]
