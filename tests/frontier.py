"""Frontier checks, run as `python tests/frontier.py`: CLI verdicts past the
tier-1 grid against closed forms and known answers.  Each verdict runs as
`python -m gielab.cli` in its own process, and each report must be strict
JSON, with no NaN or Infinity; the Grassmann count, which has no command,
runs in this process.  One line per check; exit 1 if any failed.  Without a
`test_` prefix, pytest does not collect this file."""

import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from gielab import gie  # noqa: E402


def closed_form(n, m, kappa):
    """(characters, codim V, dim K) of the cell: C_p = n(n-1)(p+1)/2 for
    p <= m-2 and C_{m-1} = n(n-1)m/2 + kappa, which sum to codim V =
    m n(n-1)/2 + dim K + kappa, where dim K = n(n-1)m(m-1)/4 is the rank of
    the pre-image's Jacobian."""
    pairs = n * (n - 1) // 2
    dim_k = pairs * m * (m - 1) // 2
    characters = [pairs * (p + 1) for p in range(m - 1)] + [pairs * m + kappa]
    return characters, m * pairs + dim_k + kappa, dim_k


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


def cli(work, *argv):
    """(exit code, report) of one CLI run in `work`; the report is strict JSON."""
    done = subprocess.run([sys.executable, "-m", "gielab.cli", *map(str, argv)],
                          cwd=work, stdout=subprocess.PIPE, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    return done.returncode, json.loads(done.stdout, parse_constant=_not_json)


def lemma(label, n, m, kappa, code, report):
    results = report["results"]
    dim_k = closed_form(n, m, kappa)[2]
    yield f"{label} exit", code, 0
    yield f"{label} verdict", report["verdict"], "pass"
    yield f"{label} residuals", results.get("cartan_identity_residuals"), ["0"] * kappa
    yield f"{label} jacobian_rank", results.get("jacobian_rank"), dim_k
    yield f"{label} jacobian_rank_expected", results.get("jacobian_rank_expected"), dim_k


def flag(label, n, m, kappa, code, report):
    results = report["results"]
    characters, codim, _ = closed_form(n, m, kappa)
    yield f"{label} exit", code, 0
    yield f"{label} verdict", report["verdict"], "pass"
    yield f"{label} cartan_test", results.get("cartan_test"), "ordinary"
    yield f"{label} flag_dimension", results.get("flag_dimension"), m
    yield f"{label} characters", results.get("characters"), characters
    yield f"{label} character_sum", results.get("character_sum"), codim
    yield f"{label} observed_codimension", results.get("observed_codimension"), codim


def audit(label, backend, code, report, conserved=None):
    results = report["results"]
    yield f"{label} {backend} exit", code, 0
    yield f"{label} {backend} verdict", report["verdict"], "pass"
    yield f"{label} {backend} identity_holds", results.get("identity_holds"), True
    if backend == "exact":
        yield f"{label} exact max_identity_residual", results.get("max_identity_residual"), 0.0
    if conserved is not None:
        yield f"{label} {backend} conserved", results.get("conserved"), conserved


def refused(label, message, code, report):
    yield f"{label} exit", code, 2
    yield f"{label} verdict", report["verdict"], "invalid-input"
    yield f"{label} names the cause", message in report["results"].get("error", ""), True


def random_psi_frontier(work):
    """`flag` at (16, 16) .. (40, 40) with kappa = (n-1)^2 (at (40, 40)
    gie.flag_size_bound is 128,623, under cli.MAX_H_ENTRIES, where kappa n m
    is 2,433,600), and `verify-lemma` at the CLI's size limit, (32, 32) with
    kappa n m = 984,064, and on the thin cells (2, 500) and (500, 2)."""
    for n in (16, 20, 31, 40):
        kappa = (n - 1) ** 2
        yield from flag(f"flag ({n}, {n})", n, n, kappa, *cli(
            work, "flag", "--n", n, "--m", n, "--kappa", kappa, "--random-psi", 1))
    for n, m, kappa in ((32, 32, 961), (2, 500, 499), (500, 2, 499)):
        yield from lemma(f"verify-lemma ({n}, {m})", n, m, kappa, *cli(
            work, "verify-lemma", "--n", n, "--m", m, "--kappa", kappa, "--random-psi", 1))


def grassmann_counts(work):
    """The rank of the pulled-back Jacobian at the pre-image is codim V."""
    for n in (9, 10, 12):
        kappa = (n - 1) ** 2
        psi = gie.random_normalized_psi(n, n, random.Random(1))
        H = gie.construct_preimage(psi, kappa)
        pullback = gie.grassmann_pullback(psi, gie.gauss_map(H), kappa)
        count = pullback.independent_differential_count(pullback.point_from(H))
        yield f"Grassmann count ({n}, {n})", count, closed_form(n, n, kappa)[1]


def psi_as_given(work):
    """psi verified as given, with no normalization.  At (8, 8),
    psi^i_{Lambda minus lam} = (i lam + 2) mod 7 - 3 has the pivot column
    (0, 1, 2, 3, -3, -2, -1, 0), whose squared norm 28 is not a rational
    square, so no rational orthogonal fiber change normalizes it.  At
    (16, 16), psi = ((3 i lam + i + 2) mod 11 - 5) / ((i + 2 lam) mod 7 + 1)
    with psi^1_{Lambda minus 16} = 0, so the pivot is p = 2 and several u_k,
    k > 2, are non-zero: the general pre-image with the S_pp correction,
    over varied denominators."""
    psi8 = [[Fraction((i * lam + 2) % 7 - 3) for lam in range(1, 9)] for i in range(1, 9)]
    psi16 = [[Fraction((3 * i * lam + i + 2) % 11 - 5, (i + 2 * lam) % 7 + 1)
              for lam in range(1, 17)] for i in range(1, 17)]
    psi16[0][15] = Fraction(0)
    yield "psi16 pivot 2 with u_k != 0 for some k > 2", (
        bool(psi16[1][15]) and sum(1 for row in psi16[2:15] if row[15]) > 1), True
    yield "psi16 denominators", len({v.denominator for row in psi16 for v in row}) > 4, True
    for psi, kappa in ((psi8, 49), (psi16, 225)):
        n = len(psi)
        Path(work, f"psi{n}.json").write_text(
            json.dumps({"n": n, "m": n, "psi": [[str(v) for v in row] for row in psi]}))
        for command, checks in (("verify-lemma", lemma), ("flag", flag)):
            yield from checks(f"psi as given ({n}, {n}) {command}", n, n, kappa, *cli(
                work, command, "--n", n, "--m", n, "--kappa", kappa, "--psi", f"psi{n}.json"))


def mono(m, *variables):
    exps = [0] * m
    for v in variables:
        exps[v] += 1
    return tuple(exps)


def mul(p, q):
    out = {}
    for a, x in p.items():
        for b, y in q.items():
            k = tuple(i + j for i, j in zip(a, b))
            out[k] = out.get(k, 0) + x * y
    return out


def total(weighted):
    """The sum of w p over the (w, p) of `weighted`."""
    out = {}
    for w, p in weighted:
        for k, v in p.items():
            out[k] = out.get(k, 0) + w * v
    return out


def det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return total(((-1) ** j, mul(head, det([row[:j] + row[j + 1:] for row in rows[1:]])))
                 for j, head in enumerate(rows[0]))


def curved_metric(m, pairs, det_g=1):
    """g = A^T diag(det_g, 1, ..., 1) A, A unit upper triangular with
    A_ij = a + b x_i x_j for i < j (0-based), (a, b) = pairs(i, j) called
    row by row.  det g = det_g, and the chart is curved: with A_ij = a + b x_j
    each row of A would be closed and g flat."""
    A = [[{mono(m): Fraction(1)} if i == j else {} for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            a, b = pairs(i, j)
            A[i][j] = {mono(m): a, mono(m, i, j): b}
    return [[total((det_g if r == 0 else 1, mul(A[r][i], A[r][j])) for r in range(m))
             for j in range(m)] for i in range(m)]


def adjugate(g, c):
    """c adj g, which is conserved: on a det-1 chart adj g = g^-1."""
    m = len(g)
    return [[{k: c * (-1 if (i + j) % 2 else 1) * v for k, v in det(
                 [[g[r][s] for s in range(m) if s != i] for r in range(m) if r != j]).items()}
             for j in range(m)] for i in range(m)]


def quadratic_T(m, coefficients):
    """T^{lam mu} = c0 + c1 x_lam + c2 x_lam x_mu, (c0, c1, c2) =
    coefficients() called entry by entry."""
    def entry(lam, mu):
        c0, c1, c2 = coefficients()
        return {mono(m): c0, mono(m, lam): c1, mono(m, lam, mu): c2}
    return [[entry(lam, mu) for mu in range(m)] for lam in range(m)]


def chart(g, T):
    def terms(p):
        return [{"exponents": list(k), "coefficient": str(v)} for k, v in p.items() if v]
    return {"m": len(g), "g": [[terms(e) for e in row] for row in g],
            "T": [[terms(e) for e in row] for row in T], "box": [[-1, 1]] * len(g)}


def seeded_chart(m, det_g):
    """A chart whose a, b and T coefficients are drawn from random.Random(m)."""
    rng = random.Random(m)

    def draw():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
    g = curved_metric(m, lambda i, j: (draw(), draw()), det_g)
    return chart(g, quadratic_T(m, lambda: (draw(), draw(), draw())))


def term(c, *exps):
    return {"exponents": list(exps), "coefficient": c}


def emt_audits(work):
    """emt-audit on curved det-1 charts, numeric at m = 8 and exact at
    m = 5, 6 and 7, and on inputs each backend must pass or refuse."""
    def run(name, doc, backend):
        Path(work, f"{name}.json").write_text(json.dumps(doc))
        return cli(work, "emt-audit", "--input", f"{name}.json", "--backend", backend)

    # A_ij = (i - j + 3)/7 + (j + 1)/5 x_i x_j, T^{lam mu} = 1 + x_lam/3 - x_lam x_mu/2
    def fixed(i, j):
        return Fraction(i - j + 3, 7), Fraction(j + 1, 5)
    for m, backend in ((8, "numeric"), (6, "exact"), (7, "exact")):
        doc = chart(curved_metric(m, fixed),
                    quadratic_T(m, lambda: (1, Fraction(1, 3), Fraction(-1, 2))))
        yield from audit(f"m = {m}", backend, *run(f"chart{m}", doc, backend))
    # det g = 2 at m = 3 is not a rational square, which the exact backend
    # must prove all the same
    for name, m, det_g in (("exact5", 5, 1), ("exact6", 6, 1), ("det2", 3, 2)):
        yield from audit(name, "exact", *run(name, seeded_chart(m, det_g), "exact"))
    one, square, unit = [term("1", 0, 0)], [[-1, 1], [-1, 1]], [[0, 1], [0, 1]]

    def plain(box, g11=one, T11=one, **extra):
        """g and T the identity but for their (1, 1) entries."""
        return {"m": 2, "g": [[g11, []], [[], one]], "T": [[T11, []], [[], one]], "box": box,
                **extra}
    x1_squared = one + [term("1", 2, 0)]
    yield from refused("non-constant det g exact", "constant metric determinant",
                       *run("nonconst", plain(square, g11=x1_squared), "exact"))
    # A = [[1, x_1 x_2], [0, 1]]: T = adj g is conserved and T = diag(x_1, x_2)
    # is not; so is T = 7/3 adj g at m = 4
    g2, g4 = curved_metric(2, lambda i, j: (0, 1)), curved_metric(4, fixed)
    diag = [[{mono(2, 0): 1}, {}], [{}, {mono(2, 1): 1}]]
    for label, doc, conserved in (("curved T = adj", chart(g2, adjugate(g2, 1)), True),
                                  ("curved T = diag", chart(g2, diag), False),
                                  ("curved m = 4 T = c adj g",
                                   chart(g4, adjugate(g4, Fraction(7, 3))), True)):
        for backend in ("exact", "numeric"):
            yield from audit(label, backend, *run("curved", doc, backend), conserved)
    # g = [[1/2, x_2/10], [x_2/10, 2 + x_2^2/50]] has det 1, spelled with
    # coefficients only Fraction's own parser reads
    g12 = [term("1e-1", 0, 1)]
    spellings = {"m": 2, "g": [[[term("0.5", 0, 0)], g12],
                               [g12, [term(" 2/3", 0, 0), term("4/3", 0, 0), term("0.02", 0, 2)]]],
                 "T": [[[term("1e-1", 1, 0), term("1", 0, 0)], [term(" 2/3", 0, 1)]],
                       [[term("0.5", 0, 0)], [term("1", 0, 0)]]],
                 "box": square}
    for backend in ("exact", "numeric"):
        yield from audit("spellings", backend, *run("spellings", spellings, backend))
    # the constant positive-definite g whose LU factorisation meets an exact
    # zero pivot
    singular = [[1.5140605674521708, 0.28183784439970383],
                [0.28183784439970383, 0.05246327144596278]]
    singular = dict(plain(unit), g=[[[term(str(Fraction(v)), 0, 0)] for v in row]
                                    for row in singular])
    yield from audit("singular LU", "exact", *run("singular", singular, "exact"))
    yield from refused("singular LU numeric", "metric singular at sample point",
                       *run("singular", singular, "numeric"))
    # g_11 = 1 + x_1^2 on [0, 2.4e154] overflows in Python's float pow at the
    # later sample points
    late = plain([[0, 2.4e154], [0, 1]], g11=x1_squared, margin=0)
    yield from refused("late overflow numeric", "is not finite at sample point",
                       *run("late", late, "numeric"))
    yield from refused("boolean exponent numeric", "bad exponent tuple (True, 0) for 2 variables",
                       *run("boolexp", plain(unit, T11=[term("1", True, 0)]), "numeric"))
    infinite = plain([[0, float("inf")], [0, 1]], T11=[term("1", 2, 0)])
    yield from refused("Infinity box exact", "chart box must give m finite ordered",
                       *run("infbox", infinite, "exact"))
    # 10^300 x_1^2 on [0, 1e10] is beyond the floats through a product, not a
    # power: the numeric backend refuses it, and the exact one, which samples
    # nothing, proves it
    big = plain([[0, 1e10], [0, 1]], T11=[term(str(10 ** 300), 2, 0)])
    yield from refused("10^300 x_1^2 numeric", "is not finite at sample point",
                       *run("big", big, "numeric"))
    yield from audit("10^300 x_1^2", "exact", *run("big", big, "exact"), conserved=False)
    message = "tensor entry (1, 1): exponent 32768 of x1 is past the limit 32767"
    for backend in ("exact", "numeric"):
        code, report = run("pastlimit", plain(unit, T11=[term("1", 32768, 0)]), backend)
        yield from refused(f"x_1^32768 {backend}", message, code, report)
        yield f"x_1^32768 {backend} error ends", report["results"]["error"].endswith(message), True


GROUPS = (random_psi_frontier, grassmann_counts, psi_as_given, emt_audits)


def main():
    failed = 0
    with tempfile.TemporaryDirectory() as work:
        for group in GROUPS:
            for name, got, want in group(work):
                failed += got != want
                print(name, "ok" if got == want else f"{got!r}, expected {want!r}", flush=True)
    print(f"{failed} checks failed" if failed else "every check passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
