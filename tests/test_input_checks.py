"""Input checks that no other test reaches: each must refuse its input."""

import re

import pytest

from gielab import InputError
from gielab.eds import AlgebraicIdeal, SigmaCoframe
from gielab.emt import (EnergyMomentum, MetricChart, flat_chart, sphere_chart,
                        verify_equivalence)
from gielab.exterior import ExteriorForm, VectorValuedForm, wedge
from gielab.gie import CurvatureElement, PsiData, SigmaIndexMap
from gielab.poly import Polynomial


_CASES = {
    "form degree": (lambda: ExteriorForm(2, -1), "negative form degree -1"),
    "form key length": (lambda: ExteriorForm(3, 2, {(1,): 1}),
                        "index (1,) has wrong length for degree 2"),
    "form key range": (lambda: ExteriorForm(3, 1, {(4,): 1}), "index (4,) out of range 1..3"),
    "form key order": (lambda: ExteriorForm(3, 2, {(2, 1): 1}),
                       "index (2, 1) is not strictly increasing"),
    "wedge dimensions": (lambda: wedge(ExteriorForm.covector(2, 1), ExteriorForm.covector(3, 1)),
                         "wedge of forms on different spaces (2 vs 3)"),
    "form sum shapes": (lambda: ExteriorForm.covector(2, 1) + ExteriorForm.zero(2, 2),
                        "form shape mismatch in addition"),
    "vector form empty": (lambda: VectorValuedForm([]),
                          "vector-valued form needs at least one component"),
    "vector form shapes": (lambda: VectorValuedForm([ExteriorForm.zero(2, 1),
                                                     ExteriorForm.zero(3, 1)]),
                           "vector-valued form components disagree in shape"),
    "polynomial variable count": (lambda: Polynomial.variable(0, 2) + Polynomial.variable(0, 3),
                                  "polynomial variable-count mismatch"),
    "curvature key order": (lambda: CurvatureElement(2, 2, {(2, 1, 1, 2): 1}),
                            "curvature key (2, 1, 1, 2) violates i<j, lam<mu"),
    "sigma pair range": (lambda: SigmaIndexMap(3, 2).pair(2, 2),
                         "sigma(i,j) needs 1 <= i < j <= n, got (2, 2)"),
    "sigma normal range": (lambda: SigmaIndexMap(3, 2).normal(6, 1),
                           "sigma(a,i) arguments out of range: (6, 1)"),
    "psi shape": (lambda: PsiData(2, 3, [[1, 2, 3]]), "psi values must form an 2 x 3 array"),
    "det psi off (2,2)": (lambda: PsiData(2, 3, [[1, 2, 3], [4, 5, 6]]).det2(),
                          "det psi is only defined for n = m = 2"),
    "ideal dimension": (lambda: AlgebraicIdeal(SigmaCoframe(2, 1), [ExteriorForm.covector(2, 1)]),
                        "generator dimension does not match the coframe"),
    "exact metric": (lambda: verify_equivalence(EnergyMomentum(2, [[Polynomial(2)] * 2] * 2),
                                                sphere_chart(), backend="exact"),
                     "exact backend needs polynomial metric components"),
    "exact tensor": (lambda: verify_equivalence(EnergyMomentum(2, [[lambda pt: 0.0] * 2] * 2),
                                                flat_chart(2), backend="exact"),
                     "exact backend needs polynomial tensor components"),
    "metric shape": (lambda: MetricChart(2, [[lambda pt: 1.0] * 2]),
                     "metric must be an 2 x 2 array"),
    "tensor shape": (lambda: EnergyMomentum(2, [[lambda pt: 1.0] * 2, [lambda pt: 1.0]]),
                     "tensor must be an 2 x 2 array"),
}


@pytest.mark.parametrize("call,message", list(_CASES.values()), ids=list(_CASES))
def test_input_check_refuses(call, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()
