"""Exact exterior-algebra toolkit for the Cartan-Kähler construction of
conservation laws: integral elements and Cartan characters, the
generalized Gauss map with its pre-image and rank certificates, explicit
ordinary integral flags, and the energy-momentum conservation audit."""

from .errors import InputError, VerificationError
from .exterior import (ExteriorForm, VectorValuedForm, contract, evaluate,
                       sort_with_sign, substitute, wedge)
from .poly import Polynomial
from .bundle import exterior_derivative, poly_form
from .eds import (AlgebraicIdeal, CartanReport, IntegralElement, SigmaCoframe,
                  cartan_characters_by_expansion, cartan_test, expansion_rows,
                  is_integral_element, polar_space)
from .gie import (CurvatureElement, DimensionLedger, PsiData,
                  RankCertificate, SecondFundamental, SigmaIndexMap,
                  adapted_expansion_rows, build_integral_flag, cartan_identity_residual,
                  closed_form_characters, construct_preimage,
                  dimension_ledger, gauss_map, gie_cartan_report, gie_ideal,
                  grassmann_pullback, jacobian_rank_certificate, load_psi,
                  random_normalized_psi)
from .emt import (EnergyMomentum, EquivalenceReport, MetricChart, christoffel,
                  christoffel_at, covariant_divergence, flat_chart,
                  inverse_metric_tensor, load_chart, sphere_chart,
                  target_dimension, tensor_to_mform, verify_equivalence)

__version__ = "0.1.0"
