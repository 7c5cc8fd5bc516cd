"""The benchmark tracer (bench/tracer.py) still finds what it traces.

The tracer rebinds gielab functions by name, so renaming, deleting or
no longer calling one of them would otherwise show up only in traced
benchmark runs.
"""

import importlib.util
import random
from pathlib import Path

from gielab import cli, eds, emt, exterior, gie, linalg
from gielab.eds import IntegralElement
from gielab.poly import Polynomial

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_and_record(tmp_path):
    tracer_mod = load_tracer()
    tracer = tracer_mod.Tracer()
    originals = {name: getattr(owner, attr)
                 for name, owner, attr, _, _ in tracer_mod.TARGETS}
    with tracer.installed():
        # every target resolved to a function and was rebound to a span wrapper
        for name, owner, attr, _, _ in tracer_mod.TARGETS:
            assert getattr(owner, attr).__wrapped__ is originals[name], name
        report = tmp_path / "flag.json"
        assert cli.main(["--output", str(report), "flag", "--n", "3", "--m", "2",
                         "--kappa", "2", "--random-psi", "1"]) == 0
        psi = gie.random_normalized_psi(3, 2, random.Random(5))
        H = gie.construct_preimage(psi, 2)
        R = gie.gauss_map(H)
        pullback = gie.grassmann_pullback(psi, R, 2)
        pullback.independent_differential_count(pullback.point_from(H))
        flag = gie.build_integral_flag(psi, H, R)
        ideal = gie.gie_ideal(psi, R, 2)
        eds.polar_space(IntegralElement(flag.basis[:1]), ideal)
        # one exact EMT verdict on a curved det-1 chart: christoffel is the
        # one exact connection, so a connection forked off it shows here,
        # not as a 0 in a traced benchmark run
        x1, one = Polynomial.variable(0, 2), Polynomial.constant(1, 2)
        chart = emt.MetricChart(2, [[one, x1], [x1, one + x1 * x1]], box=[[0, 1], [0, 1]])
        T = emt.EnergyMomentum(2, [[one, Polynomial(2)], [Polynomial(2), one]])
        assert emt.verify_equivalence(T, chart, backend="exact").identity_holds
        # no pipeline reaches Bareiss elimination, the generic integrality
        # walk, evaluate, substitute or Polynomial.__mul__ any more (only the
        # adapted ideal's expansion rows are written, the Grassmann functions
        # are written directly, and the exact EMT products go through
        # poly.sum_of_products); they are still traced targets, so they are
        # called here.  No pipeline reaches emt.christoffel_at or
        # MetricChart.cholesky_at either; those only have to resolve
        linalg.rank([H.vector(1, 1), H.vector(2, 1)])
        assert eds.is_integral_element(flag, ideal)
        assert exterior.evaluate(ideal.generators[-1], flag.basis) == 0
        assert exterior.substitute(ideal.generators[-1], {}) == ideal.generators[-1]
        x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
        assert (x * y).terms == {((0, 1), (1, 1)): 1}
    for name, owner, attr, _, _ in tracer_mod.TARGETS:
        assert getattr(owner, attr) is originals[name], name
    stats, _ = tracer.summary()
    reached = {name for name, st in stats.items() if st["calls"]}
    # exterior.wedge and Polynomial.partial are off the flag path (the ideal
    # is written directly and the Grassmann route takes gradient_at); the
    # exact EMT verdict reaches them through bundle
    assert {"cli.main", "gie.construct_preimage", "gie.gauss_map", "gie.gie_ideal",
            "gie.build_integral_flag", "gie.gie_cartan_report",
            "gie.grassmann_pullback",
            "gie.GrassmannPullback.independent_differential_count",
            "eds.is_integral_element", "eds.cartan_characters_by_expansion",
            "eds.polar_space", "linalg.bareiss_echelon", "linalg.nullspace",
            "linalg.SparseEchelon.insert", "exterior.evaluate",
            "exterior.substitute", "poly.Polynomial.mul", "emt.verify_equivalence:exact",
            "emt.christoffel", "emt.covariant_exterior_derivative",
            "bundle.exterior_derivative", "exterior.wedge",
            "poly.Polynomial.partial"} <= reached
    # each counter hook ran at its call site
    for key in ("cli.report_bytes", "gie.gie_ideal.terms", "gie.grassmann_pullback.terms",
                "eds.expansion_rows", "eds.polar_space.rows",
                "linalg.bareiss_echelon.cells", "linalg.SparseEchelon.insert.kept"):
        assert tracer.counters.get(key, 0) > 0, key
