"""Workload inputs, operations and known answers.

Every input is generated here from the workload seed and handed to gielab
as a JSON document (psi-data or a metric chart) or as a value built from
such a document by gielab's own public loaders.  Every known answer is a
closed form evaluated here, never a value read back from gielab.

An operation (`Op`) is one verdict: `run()` calls gielab and returns an
observation, `check(observation)` compares it with the known answer and
returns None, or a `(reason, known_defect)` pair for a wrong verdict.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import gielab.cli as cli
from gielab import eds, emt, gie
from gielab.errors import VerificationError

LEMMA_GRID = [(n, m) for n in range(2, 8) for m in range(2, 8)]
LEMMA_PSI_PER_CELL = 3
LEMMA_CONTROLS = [(4, 4), (5, 5), (6, 6)]
FLAG_CELLS = [(6, 6), (6, 6), (7, 7), (7, 7)]
ROUTE_CELLS = [(4, 4), (3, 5), (5, 3)]
GRASSMANN_CELLS = [(4, 4), (5, 5)]
OFF_PREIMAGE_CELL = (4, 4)
EMT_CHART_DIMS = [2, 3, 4]
# Each dimension gets one chart with T unscaled and one with T scaled by
# 10^6, the scale at which the defect below was reproduced.  Between
# them, whether the defect trips depends on the seeded coefficients, so
# the number of wrong verdicts would change with the seed.
EMT_SCALE_EXPONENTS = (0, 6)

# The numeric EMT backend compares residuals against an absolute 1e-6,
# so a tensor that satisfies the identity but is scaled by 10^k can be
# reported as a violation.  Such verdicts are wrong and are counted as
# failures; they are named so that any other wrong verdict stands out.
NUMERIC_TOLERANCE = 1e-6
SCALE_DEFECT = "numeric EMT backend: absolute tolerance ignores the scale of T"


# ---------------------------------------------------------------------------
# closed forms


def curvature_rank(n, m):
    """dim K = n(n-1)m(m-1)/4, the maximal rank of dG."""
    return n * (n - 1) * m * (m - 1) // 4


def closed_characters(n, m, kappa):
    """C_lam = n(n-1)(lam+1)/2 for lam <= m-2, C_{m-1} = n(n-1)m/2 + kappa."""
    chars = [n * (n - 1) * (lam + 1) // 2 for lam in range(m - 1)]
    return chars + [n * (n - 1) * m // 2 + kappa]


def codim_v(n, m, kappa):
    """Codimension of the integral-element variety."""
    return m * n * (n - 1) // 2 + curvature_rank(n, m) + kappa


def min_kappa(n, m):
    return (n - 1) * (m - 1)


# With H_{2,1} := H_{1,1} the first singular diagonal block of the rank
# certificate is the first level (k, nu), nu outer, whose rows
# {H_{i lam} : i < k, lam < nu} contain both H_{1,1} and H_{2,1}.
CORRUPT_FAILED_LEVEL = [3, 2]


# ---------------------------------------------------------------------------
# input generation


def _nonzero_fraction(rng, top):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, top))


def psi_doc(rng, n, m):
    """Normalized psi-data: last column e_1, every other entry a nonzero
    rational, so the sparsity pattern (and the work) depends on (n, m)
    only.  det psi = -psi_{2,1} != 0 covers the n = m = 2 condition."""
    rows = [[str(_nonzero_fraction(rng, 9)) for _ in range(m - 1)]
            + ["1" if i == 0 else "0"] for i in range(n)]
    return {"n": n, "m": m, "psi": rows}


def _poly_json(terms):
    return [{"exponents": list(e), "coefficient": str(c)}
            for e, c in sorted(terms.items())]


def _poly_mul(p, q):
    out = {}
    for a, x in p.items():
        for b, y in q.items():
            key = tuple(i + j for i, j in zip(a, b))
            out[key] = out.get(key, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _poly_add(p, q):
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _monomial(m, *variables):
    exps = [0] * m
    for v in variables:
        exps[v] += 1
    return tuple(exps)


def chart_doc(rng, m, k):
    """Curved polynomial chart with det g = 1 and a tensor scaled by 10^k.

    g = A^T A with A unit upper triangular, A_{ij} = a + b x_j (i < j);
    T^{lam mu} = 10^k (c0 + c1 x_lam + c2 x_lam x_mu).  The monomial
    pattern is fixed by m; the seed picks the coefficients."""
    one = _monomial(m)
    A = [[{one: Fraction(1)} if i == j else {} for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            A[i][j] = {one: _nonzero_fraction(rng, 3),
                       _monomial(m, j): _nonzero_fraction(rng, 3)}
    g = [[{} for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            for r in range(m):
                g[i][j] = _poly_add(g[i][j], _poly_mul(A[r][i], A[r][j]))
    scale = 10 ** k
    T = [[{one: scale * _nonzero_fraction(rng, 9),
           _monomial(m, lam): scale * _nonzero_fraction(rng, 9),
           _monomial(m, lam, mu): scale * _nonzero_fraction(rng, 9)}
          for mu in range(m)] for lam in range(m)]
    doc = {"m": m, "g": [[_poly_json(e) for e in row] for row in g],
           "T": [[_poly_json(e) for e in row] for row in T],
           "box": [[-1, 1]] * m}
    return doc


def nonconstant_det_chart_doc(rng):
    """g = diag(1 + c x_1^2, 1): positive definite, det g not constant."""
    c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    one, x1sq = (0, 0), (2, 0)
    g = [[{one: Fraction(1), x1sq: c}, {}], [{}, {one: Fraction(1)}]]
    T = [[{one: _nonzero_fraction(rng, 9)} for _ in range(2)] for _ in range(2)]
    return {"m": 2, "g": [[_poly_json(e) for e in row] for row in g],
            "T": [[_poly_json(e) for e in row] for row in T],
            "box": [[-1, 1], [-1, 1]]}


# ---------------------------------------------------------------------------
# operations and checks


@dataclass
class Raised:
    """An exception that escaped a call into gielab."""
    exc: BaseException


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "tuple[str, str | None] | None"]


def mismatch(**fields):
    """fields: name=(got, want).  None when every pair agrees, otherwise
    a wrong-verdict reason listing the disagreeing fields."""
    bad = [f"{k}: got {g!r}, want {w!r}" for k, (g, w) in fields.items() if g != w]
    return ("; ".join(bad), None) if bad else None


def cli_op(label, argv, report_path, check_report):
    """Run `gielab.cli.main` writing its report to `report_path`; the
    check gets (exit code, report dict)."""
    def run():
        return cli.main(["--output", report_path, *argv])

    def check(obs):
        if isinstance(obs, Raised):
            return f"uncaught {type(obs.exc).__name__}: {obs.exc}", None
        try:
            with open(report_path) as fh:
                report = json.load(fh)
            os.remove(report_path)  # the next pass must write its own
        except (OSError, ValueError) as exc:
            return f"exit {obs} without a readable report: {exc}", None
        return check_report(obs, report)

    return Op(label, run, check)


def library_op(label, run, check_result):
    def check(obs):
        if isinstance(obs, Raised):
            return f"uncaught {type(obs.exc).__name__}: {obs.exc}", None
        return check_result(obs)
    return Op(label, run, check)


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def lemma_sweep(rng, workdir):
    ops = []
    for n, m in LEMMA_GRID:
        kappa = min_kappa(n, m)
        for s in range(LEMMA_PSI_PER_CELL):
            psi_path = _write(os.path.join(workdir, f"psi-{n}-{m}-{s}.json"),
                              psi_doc(rng, n, m))
            report = os.path.join(workdir, f"lemma-{n}-{m}-{s}.report.json")
            argv = ["verify-lemma", "--n", str(n), "--m", str(m),
                    "--kappa", str(kappa), "--psi", psi_path]
            ops.append(cli_op(f"verify-lemma ({n},{m}) psi#{s}", argv, report,
                              _lemma_check(n, m)))
    for n, m in LEMMA_CONTROLS:
        ops.append(_corrupt_certificate_op(psi_doc(rng, n, m), n, m))
    return ops


def _lemma_check(n, m):
    rank, kappa = curvature_rank(n, m), min_kappa(n, m)

    def check(code, rep):
        res = rep.get("results", {})
        return mismatch(exit=(code, 0), verdict=(rep.get("verdict"), "pass"),
                        rank=(res.get("jacobian_rank"), rank),
                        rank_expected=(res.get("jacobian_rank_expected"), rank),
                        gauss_map_zero=(res.get("gauss_map_zero"), True),
                        residuals=(res.get("cartan_identity_residuals"), ["0"] * kappa))
    return check


def _corrupt_certificate_op(doc, n, m):
    kappa = min_kappa(n, m)

    def run():
        psi = gie.load_psi(doc)
        H = gie.construct_preimage(psi, kappa)
        for a in range(1, kappa + 1):
            H.set(a, 2, 1, H[a, 1, 1])
        return gie.jacobian_rank_certificate(H, psi)

    def check(cert):
        rank = curvature_rank(n, m)
        failed = list(cert.failed_level) if cert.failed_level else None
        return mismatch(full=(cert.full, False), expected=(cert.expected, rank),
                        rank_below_expected=(cert.rank < rank, True),
                        failed_level=(failed, CORRUPT_FAILED_LEVEL))

    return library_op(f"corrupted H_21 := H_11 ({n},{m})", run, check)


def _preimage(doc, n, m):
    psi = gie.load_psi(doc)
    kappa = min_kappa(n, m)
    return psi, gie.construct_preimage(psi, kappa), kappa


def flag_routes(rng, workdir):
    ops = []
    for idx, (n, m) in enumerate(FLAG_CELLS):
        kappa = min_kappa(n, m)
        psi_path = _write(os.path.join(workdir, f"flag-psi-{idx}.json"),
                          psi_doc(rng, n, m))
        report = os.path.join(workdir, f"flag-{idx}.report.json")
        chars, codim = closed_characters(n, m, kappa), codim_v(n, m, kappa)

        def check(code, rep, chars=chars, codim=codim, m=m):
            res = rep.get("results", {})
            return mismatch(exit=(code, 0), verdict=(rep.get("verdict"), "pass"),
                            cartan_test=(res.get("cartan_test"), "ordinary"),
                            flag_dimension=(res.get("flag_dimension"), m),
                            characters=(res.get("characters"), chars),
                            character_sum=(res.get("character_sum"), codim),
                            observed_codimension=(res.get("observed_codimension"), codim))

        argv = ["flag", "--n", str(n), "--m", str(m), "--kappa", str(kappa),
                "--psi", psi_path]
        ops.append(cli_op(f"flag ({n},{m}) #{idx}", argv, report, check))
    for n, m in ROUTE_CELLS:
        ops.append(_route_op(psi_doc(rng, n, m), n, m))
    for n, m in GRASSMANN_CELLS:
        ops.append(_grassmann_op(psi_doc(rng, n, m), n, m))
    ops.append(_off_preimage_op(psi_doc(rng, *OFF_PREIMAGE_CELL), *OFF_PREIMAGE_CELL))
    return ops


def _route_op(doc, n, m):
    """Closed form = expansion characters = polar-space codimension at every p."""
    def run():
        psi, H, kappa = _preimage(doc, n, m)
        R = gie.gauss_map(H)
        raw = gie.gie_ideal(psi, R, kappa)
        flag = gie.build_integral_flag(psi, H, R)
        expansion = gie.gie_cartan_report(psi, H, R).characters
        polar = [raw.dim - len(eds.polar_space(eds.IntegralElement(flag.basis[:p]), raw))
                 for p in range(m)]
        return expansion, polar

    def check(obs):
        expansion, polar = obs
        chars = closed_characters(n, m, min_kappa(n, m))
        return mismatch(expansion=(expansion, chars), polar=(polar, chars))

    return library_op(f"character routes ({n},{m})", run, check)


def _grassmann_op(doc, n, m):
    def run():
        psi, H, kappa = _preimage(doc, n, m)
        pullback = gie.grassmann_pullback(psi, gie.gauss_map(H), kappa)
        return pullback.independent_differential_count(pullback.point_from(H))

    def check(count):
        return mismatch(grassmann_count=(count, codim_v(n, m, min_kappa(n, m))))

    return library_op(f"Grassmann pullback count ({n},{m})", run, check)


def _off_preimage_op(doc, n, m):
    """H_{1m} shifted by one breaks the Cartan identity: the flag check
    must refuse it with VerificationError."""
    def run():
        psi, H, _ = _preimage(doc, n, m)
        H.set(1, 1, m, H[1, 1, m] + 1)
        try:
            gie.build_integral_flag(psi, H)
        except VerificationError:
            return "VerificationError"
        return "returned a flag"

    def check(outcome):
        return mismatch(outcome=(outcome, "VerificationError"))

    return library_op(f"H off the pre-image ({n},{m})", run, check)


_RESIDUAL = re.compile(r"residual ([0-9.eE+-]+)")


def _emt_check(backend, k):
    def check(code, rep):
        res = rep.get("results", {})
        if (backend == "numeric" and code == 1 and rep.get("verdict") == "violation"
                and k >= 1):
            found = _RESIDUAL.search(str(res.get("error", "")))
            residual = float(found.group(1)) if found else None
            if residual is not None and residual <= NUMERIC_TOLERANCE * 10 ** k:
                return (f"false violation: residual {residual:.3e} with T scaled "
                        f"by 1e{k}", SCALE_DEFECT)
        # The numeric backend's report carries numpy booleans, which the
        # CLI serializes as the strings "True"/"False"; read them by value.
        holds = res.get("identity_holds") in (True, "True")
        wrong = mismatch(exit=(code, 0), verdict=(rep.get("verdict"), "pass"),
                         identity_holds=(holds, True),
                         backend=(res.get("backend"), backend))
        if wrong or backend == "numeric":
            return wrong
        return mismatch(max_identity_residual=(res.get("max_identity_residual"), 0.0))
    return check


def emt_audit(rng, workdir):
    ops = []
    charts = [(m, k) for m in EMT_CHART_DIMS for k in EMT_SCALE_EXPONENTS]
    for idx, (m, k) in enumerate(charts):
        doc = chart_doc(rng, m, k)
        path = _write(os.path.join(workdir, f"chart-{idx}.json"), doc)
        for backend in ("exact", "numeric"):
            report = os.path.join(workdir, f"emt-{idx}-{backend}.report.json")
            argv = ["emt-audit", "--input", path, "--backend", backend]
            ops.append(cli_op(f"emt-audit m={m} T*1e{k} chart#{idx} {backend}",
                              argv, report, _emt_check(backend, k)))
    path = _write(os.path.join(workdir, "chart-nonconstant-det.json"),
                  nonconstant_det_chart_doc(rng))
    report = os.path.join(workdir, "emt-nonconstant-det.report.json")
    ops.append(cli_op("emt-audit non-constant det exact",
                      ["emt-audit", "--input", path, "--backend", "exact"], report,
                      lambda code, rep: mismatch(exit=(code, 2),
                                                 verdict=(rep.get("verdict"),
                                                          "invalid-input"))))

    def sphere():
        chart = emt.sphere_chart()
        return emt.verify_equivalence(emt.inverse_metric_tensor(chart), chart,
                                      backend="numeric")

    ops.append(library_op(
        "sphere chart, T = g^-1, numeric", sphere,
        lambda rep: mismatch(identity_holds=(rep.identity_holds, True),
                             conserved=(rep.conserved, True),
                             residual_below_tolerance=(
                                 rep.max_identity_residual < NUMERIC_TOLERANCE, True))))
    return ops


WORKLOADS = {"lemma-sweep": lemma_sweep, "flag-routes": flag_routes,
             "emt-audit": emt_audit}


def build(workload, seed, workdir):
    """The operations of one pass; inputs depend on (workload, seed) only."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, workdir)


def self_test():
    """Feed the checks injected wrong verdicts; returns the cases the
    checks got wrong (an empty list when every check can fail)."""
    good = {"verdict": "pass",
            "results": {"jacobian_rank": 3, "jacobian_rank_expected": 3,
                        "gauss_map_zero": True,
                        "cartan_identity_residuals": ["0", "0"]}}
    wrong_rank = json.loads(json.dumps(good))
    wrong_rank["results"]["jacobian_rank"] = 2
    lemma = _lemma_check(3, 2)

    def violation(residual):
        return {"verdict": "violation",
                "results": {"error": f"backends disagree beyond tolerance: "
                                     f"residual {residual:.3e} at point [0.5, 0.5]"}}

    numeric_k0, numeric_k4 = _emt_check("numeric", 0), _emt_check("numeric", 4)
    via_library = library_op("injected", lambda: None, lambda obs: None)
    cases = {
        "correct lemma verdict accepted": lemma(0, good) is None,
        "wrong rank flagged": lemma(0, wrong_rank) is not None,
        "wrong exit code flagged": lemma(1, good) is not None,
        "uncaught exception flagged":
            via_library.check(Raised(RuntimeError("injected"))) is not None,
        "scale false violation named as the known defect":
            (numeric_k4(1, violation(3e-5)) or (None, None))[1] == SCALE_DEFECT,
        "unscaled numeric violation flagged as unexpected":
            (numeric_k0(1, violation(3e-5)) or (None, SCALE_DEFECT))[1] is None,
        "large violation at scale not excused":
            (numeric_k4(1, violation(5e-1)) or (None, SCALE_DEFECT))[1] is None,
    }
    return [name for name, ok in cases.items() if not ok]
