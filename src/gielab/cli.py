"""Command-line front door: machine-readable verification reports.

Subcommands: verify-lemma, ledger, flag, emt-audit, sweep.  Every run
emits a JSON report (schema "1") and exits 0 on pass, 1 on a verified
violation, and 2 on invalid input.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time

from . import emt, gie
from .errors import InputError, VerificationError

SCHEMA = "1"

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INVALID = 2

# Largest cell a command may ask for, in stored entries.  `verify-lemma` and
# `sweep` measure a cell by kappa*n*m: the rank certificate's fallback
# eliminates over that many coordinates of H (the (32, 32) cell with
# kappa = 961 has 984,064).  `flag` measures it by `gie.flag_size_bound`,
# H's columns and non-zeros plus the expansion rows it inserts, which it
# stores instead of an ideal (the (79, 79) cell with kappa = 6,084 has
# 982,684).  `ledger` stores m characters, so it measures a cell by m.
MAX_H_ENTRIES = 10 ** 6

# Largest number of cells a `sweep` report may hold, the corrupted control
# included: each cell is a verdict and about 130 bytes of report.
MAX_SWEEP_CELLS = 10 ** 5


def _report(command, inputs, results, verdict, started):
    return {
        "schema": SCHEMA,
        "command": command,
        "inputs": inputs,
        "results": results,
        "verdict": verdict,
        "wall_time_s": round(time.monotonic() - started, 6),
    }


def _emit(report, output, code):
    """Write the report to `output`, or to stdout, and return `code`.  A
    report that cannot be written is replaced on stdout by an
    invalid-input report naming the path, with EXIT_INVALID."""
    text = json.dumps(report, indent=2, default=str)
    if not output:
        print(text)
        return code
    try:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        failed = dict(report, verdict="invalid-input",
                      results={"error": f"cannot write the report to {output}: {exc}"})
        print(json.dumps(failed, indent=2, default=str))
        return EXIT_INVALID
    return code


def _echo(args):
    """The inputs every report of this run echoes, success or failure,
    read from the parsed arguments alone."""
    if args.command == "sweep":
        return {"n_range": args.n_range, "m_range": args.m_range,
                "seeds": args.seeds, "inject_corrupt": args.inject_corrupt}
    if args.command == "emt-audit":
        return {"input": args.input, "backend": args.backend}
    inputs = {"n": args.n, "m": args.m, "kappa": args.kappa}
    if args.command != "ledger":
        if args.psi:
            inputs["psi_file"] = args.psi
        if args.random_psi is not None:
            inputs["random_psi_seed"] = args.random_psi
    return inputs


def _check_size(n, m, kappa):
    """Refuse a cell whose kappa*n*m (psi alone has n*m entries) exceeds
    MAX_H_ENTRIES before anything of that size is allocated."""
    size = max(kappa, 1) * n * m
    if size > MAX_H_ENTRIES:
        raise InputError(
            f"size kappa*n*m = {size} (n = {n}, m = {m}, kappa = {kappa}) "
            f"exceeds the limit {MAX_H_ENTRIES}")


def _check_flag_size(n, m, kappa):
    """Refuse a `flag` cell whose `gie.flag_size_bound` exceeds
    MAX_H_ENTRIES before anything of that size is allocated.  The bound is
    taken at kappa >= 1, where it also covers psi's n*m entries."""
    size = gie.flag_size_bound(n, m, max(kappa, 1))
    if size > MAX_H_ENTRIES:
        raise InputError(
            f"size of H plus its expansion rows = {size} (n = {n}, m = {m}, "
            f"kappa = {kappa}) exceeds the limit {MAX_H_ENTRIES}")


def _read_json(path):
    """The JSON document in the file `path`; InputError for one nested
    deeper than the parser can follow."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise InputError(f"{path} nests its JSON too deeply to read") from None


def _load_psi_arg(args):
    if args.psi and args.random_psi is not None:
        raise InputError("give only one of --psi FILE and --random-psi SEED")
    if args.psi:
        psi = gie.load_psi(_read_json(args.psi))
        if (args.n, args.m) != (psi.n, psi.m):
            raise InputError(
                f"--n {args.n} --m {args.m} disagree with the {psi.n} x {psi.m} "
                f"psi in {args.psi}")
        return psi
    if args.random_psi is not None:
        rng = random.Random(args.random_psi)
        return gie.random_normalized_psi(args.n, args.m, rng)
    raise InputError("provide either --psi FILE or --random-psi SEED")


def _lemma_results(psi, kappa):
    """Run the pre-image pipeline and report its three exact contracts."""
    H = gie.construct_preimage(psi, kappa)
    residuals = gie.cartan_identity_residual(H, psi)
    gauss = gie.gauss_map(H)
    cert = gie.jacobian_rank_certificate(H, psi)
    results = {
        "cartan_identity_residuals": [str(r) for r in residuals],
        "gauss_map_zero": gauss.is_zero(),
        "jacobian_rank": cert.rank,
        "jacobian_rank_expected": cert.expected,
        "value_kind": "exact",
    }
    if cert.failed_level:
        results["failed_block_level"] = list(cert.failed_level)
    ok = (all(not r for r in residuals) and gauss.is_zero() and cert.full)
    return results, ok


def cmd_verify_lemma(args, inputs, started):
    _check_size(args.n, args.m, args.kappa)
    psi = _load_psi_arg(args)
    results, ok = _lemma_results(psi, args.kappa)
    verdict = "pass" if ok else "violation"
    return _report("verify-lemma", inputs, results, verdict, started)


def cmd_ledger(args, inputs, started):
    if args.m > MAX_H_ENTRIES:
        raise InputError(f"m = {args.m} characters exceed the limit {MAX_H_ENTRIES}")
    ledger = gie.dimension_ledger(args.n, args.m, args.kappa)
    results = {
        "dim_sigma": ledger.dim_sigma,
        "dim_hset": ledger.dim_hset,
        "dim_z": ledger.dim_z,
        "dim_k": ledger.dim_k,
        "codim_v": ledger.codim_v,
        "characters": ledger.characters,
        "character_sum": ledger.character_sum,
        "min_kappa": ledger.min_kappa,
        "value_kind": "exact",
    }
    return _report("ledger", inputs, results, "pass", started)


def cmd_flag(args, inputs, started):
    _check_flag_size(args.n, args.m, args.kappa)
    psi = _load_psi_arg(args)
    H = gie.construct_preimage(psi, args.kappa)
    # VerificationError unless every generator vanishes on the flag of H,
    # whose e_lam has its one base entry, a 1, at lam: it is m-dimensional
    report = gie.gie_cartan_report(psi, H)
    results = {
        "flag_dimension": psi.m,
        "integral": True,
        "volume_form_value": "1",
        "characters": report.characters,
        "character_sum": report.character_sum,
        "observed_codimension": report.observed_codimension,
        "cartan_test": report.verdict,
        "value_kind": "exact",
    }
    verdict = "pass" if report.verdict == "ordinary" else "violation"
    return _report("flag", inputs, results, verdict, started)


def cmd_emt_audit(args, inputs, started):
    chart, tensor = emt.load_chart(_read_json(args.input))
    inputs["m"] = chart.m  # known once the chart loads; failures after it echo m
    # verify_equivalence raises VerificationError on a breach of the identity
    report = emt.verify_equivalence(tensor, chart, backend=args.backend)
    return _report("emt-audit", inputs, report.as_dict(), "pass", started)


def _parse_range(text):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    return range(int(text), int(text) + 1)


def cmd_sweep(args, inputs, started):
    if args.seeds < 0:
        raise InputError(f"--seeds {args.seeds} is negative")
    n_range = _parse_range(args.n_range)
    m_range = _parse_range(args.m_range)
    if not (n_range and m_range):
        n_range = m_range = range(0)  # no cells
    else:  # the last cell is the largest valid one
        n, m = n_range[-1], m_range[-1]
        _check_size(n, m, (n - 1) * (m - 1))
    # stop - start is a range's length without len()'s bound at sys.maxsize
    total = ((n_range.stop - n_range.start) * (m_range.stop - m_range.start) * args.seeds
             + args.inject_corrupt)
    if total > MAX_SWEEP_CELLS:
        raise InputError(f"a sweep of {total} cells exceeds the limit {MAX_SWEEP_CELLS}")
    cells = []
    violations = 0
    for n in n_range:
        for m in m_range:
            kappa = (n - 1) * (m - 1)
            for seed in range(args.seeds):
                rng = random.Random(1000 * n + 100 * m + seed)
                psi = gie.random_normalized_psi(n, m, rng)
                results, ok = _lemma_results(psi, kappa)
                if not ok:
                    violations += 1
                cells.append({"n": n, "m": m, "kappa": kappa, "seed": seed,
                              "pass": ok, "rank": results["jacobian_rank"]})
    if args.inject_corrupt:
        n, m = 3, 2
        rng = random.Random(0)
        psi = gie.random_normalized_psi(n, m, rng)
        H = gie.construct_preimage(psi, (n - 1) * (m - 1))
        for a in range(1, H.kappa + 1):
            H.set(a, 2, 1, H[a, 1, 1])  # force H_21 = H_11
        cert = gie.jacobian_rank_certificate(H, psi)
        cells.append({"n": n, "m": m, "kappa": H.kappa, "seed": "corrupt",
                      "pass": cert.full, "rank": cert.rank,
                      "failed_block_level": list(cert.failed_level or ())})
        if not cert.full:
            violations += 1
    results = {"cells": cells, "violations": violations,
               "total": len(cells), "value_kind": "exact"}
    if not cells:
        results["warning"] = "empty sweep range: pass vacuously"
    verdict = "pass" if violations == 0 else "violation"
    return _report("sweep", inputs, results, verdict, started)


class _Parser(argparse.ArgumentParser):
    """Raises InputError where argparse would print usage and exit, so
    that rejected argv ends in a report too."""

    def error(self, message):
        raise InputError(message)


@functools.cache
def build_parser():
    """The argparse tree, built once per process on the first call: building
    it costs about as much as a small verdict, and parsing leaves no state in
    it, since every `main` call parses into a fresh Namespace.  It is not
    built at import, so importing the CLI stays cheap."""
    parser = _Parser(
        prog="gielab",
        description="Exact verification pipelines for the isometric-embedding "
                    "conservation-law construction")
    parser.add_argument("--output", help="write the JSON report to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_psi_args(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--kappa", type=int, required=True)
        p.add_argument("--psi", help="psi-data JSON file")
        p.add_argument("--random-psi", type=int, default=None, metavar="SEED",
                       help="generate seeded random normalized psi")

    p = sub.add_parser("verify-lemma", help="pre-image, residual, and rank checks")
    add_psi_args(p)
    p.set_defaults(func=cmd_verify_lemma)

    p = sub.add_parser("ledger", help="dimension ledger and character sum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.set_defaults(func=cmd_ledger)

    p = sub.add_parser("flag", help="build and verify the integral flag")
    add_psi_args(p)
    p.set_defaults(func=cmd_flag)

    p = sub.add_parser("emt-audit", help="energy-momentum equivalence audit")
    p.add_argument("--input", required=True, help="metric/tensor JSON file")
    p.add_argument("--backend", choices=["exact", "numeric"], default="exact")
    p.set_defaults(func=cmd_emt_audit)

    p = sub.add_parser("sweep", help="grid sweep over the lemma pipeline")
    p.add_argument("--n-range", default="2..5")
    p.add_argument("--m-range", default="2..5")
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--inject-corrupt", action="store_true",
                   help="also run a deliberately corrupted H instance")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    started = time.monotonic()
    argv = sys.argv[1:] if argv is None else list(argv)
    parsed = argparse.Namespace()
    try:
        args = build_parser().parse_args(argv, parsed)
    except InputError as exc:
        # --output is set only if argparse reached it before failing
        report = _report(getattr(parsed, "command", None), {"argv": argv},
                         {"error": str(exc)}, "invalid-input", started)
        return _emit(report, getattr(parsed, "output", None), EXIT_INVALID)
    inputs = _echo(args)
    try:
        report = args.func(args, inputs, started)
    # InputError and JSONDecodeError are ValueErrors; OverflowError is an
    # input value beyond the range of a float
    except (OSError, ValueError, OverflowError) as exc:
        report = _report(args.command, inputs, {"error": str(exc)},
                         "invalid-input", started)
        return _emit(report, args.output, EXIT_INVALID)
    except VerificationError as exc:
        report = _report(args.command, inputs, {"error": str(exc)},
                         "violation", started)
        return _emit(report, args.output, EXIT_VIOLATION)
    code = EXIT_PASS if report["verdict"] == "pass" else EXIT_VIOLATION
    return _emit(report, args.output, code)


if __name__ == "__main__":
    sys.exit(main())
