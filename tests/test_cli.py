"""CLI reports: subcommands, schema, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gielab import cli
from gielab.cli import (EXIT_INVALID, EXIT_PASS, EXIT_VIOLATION, MAX_H_ENTRIES,
                        MAX_SWEEP_CELLS, build_parser, main)
from gielab.gie import closed_form_characters, dimension_ledger, flag_size_bound
from gielab.poly import MAX_EXPONENT


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """json.loads refusing NaN and the infinities, which RFC 8259 lacks."""
    return json.loads(text, parse_constant=_refuse_constant)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, strict_json(out)


def test_ledger_pass(capsys):
    code, report = run(["ledger", "--n", "3", "--m", "2", "--kappa", "2"], capsys)
    assert code == EXIT_PASS
    assert report["schema"] == "1"
    assert report["verdict"] == "pass"
    assert report["results"]["character_sum"] == 11
    assert report["results"]["codim_v"] == 11
    assert report["results"]["value_kind"] == "exact"


def test_ledger_minimal_kappa_echo(capsys):
    code, report = run(["ledger", "--n", "4", "--m", "5", "--kappa", "12"], capsys)
    assert code == EXIT_PASS
    assert report["results"]["min_kappa"] == 12


def test_ledger_invalid_kappa(capsys):
    code, report = run(["ledger", "--n", "4", "--m", "5", "--kappa", "11"], capsys)
    assert code == EXIT_INVALID
    assert report["verdict"] == "invalid-input"


def test_ledger_past_the_size_limit_is_refused_before_listing_characters(capsys):
    # the ledger lists m characters: --m 10^6 took 0.7 s and 136 MB and
    # wrote 13.5 MB of report, and the cost grows linearly in m
    build_parser()  # built once per process; not part of the refusal
    m = MAX_H_ENTRIES + 1
    started = time.perf_counter()
    code, report = run(["ledger", "--n", "2", "--m", str(m), "--kappa", str(m - 1)], capsys)
    assert time.perf_counter() - started < 0.01
    assert code == EXIT_INVALID
    assert report["results"]["error"] == (
        f"m = {m} characters exceed the limit {MAX_H_ENTRIES}")


def test_verify_lemma_random_psi(capsys):
    code, report = run(["verify-lemma", "--n", "2", "--m", "2", "--kappa", "1",
                        "--random-psi", "7"], capsys)
    assert code == EXIT_PASS
    assert report["results"]["gauss_map_zero"] is True
    assert report["results"]["jacobian_rank"] == 1
    assert all(r == "0" for r in report["results"]["cartan_identity_residuals"])


@pytest.mark.parametrize("argv", [["verify-lemma", "--random-psi", "7"],
                                  ["flag", "--random-psi", "7"],
                                  ["ledger"]], ids=lambda argv: argv[0])
def test_verify_lemma_kappa_zero_is_invalid(argv, capsys):
    # one check of the minimum kappa, with one message, behind all three
    code, report = run(argv + ["--n", "2", "--m", "2", "--kappa", "0"], capsys)
    assert code == EXIT_INVALID
    assert report["results"]["error"] == "kappa = 0 below the minimum (n-1)(m-1) = 1"


def test_verify_lemma_psi_file(tmp_path, capsys):
    # the three-sheet example: psi column (1, 0, 0) in the last base slot
    doc = {"n": 3, "m": 2,
           "psi": [["1/2", "1"], ["2", "0"], ["-1/3", "0"]]}
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(doc))
    code, report = run(["verify-lemma", "--n", "3", "--m", "2", "--kappa", "2",
                        "--psi", str(path)], capsys)
    assert code == EXIT_PASS
    assert report["results"]["jacobian_rank"] == 3


@pytest.mark.parametrize("psi", [["12", "34"], [["1", "2"], "34"], [["1", "2"]],
                                 {"0": ["1", "2"], "1": ["3", "4"]}])
def test_psi_file_must_be_n_rows_of_m_entries(tmp_path, capsys, psi):
    # a string row used to be read character by character: ["12", "34"]
    # passed as [[1, 2], [3, 4]]
    path = tmp_path / "psi.json"
    path.write_text(json.dumps({"n": 2, "m": 2, "psi": psi}))
    code, report = run(["verify-lemma", "--n", "2", "--m", "2", "--kappa", "1",
                        "--psi", str(path)], capsys)
    assert (code, report["verdict"]) == (EXIT_INVALID, "invalid-input")
    assert "field 'psi' must be 2 rows of 2 entries" in report["results"]["error"]


def test_verify_lemma_reports_the_failed_block_level(capsys, monkeypatch):
    # H_21 := H_11 in every normal direction at (3, 2) leaves dG short of
    # maximal rank; the certificate names the block level where it fails
    from gielab import gie
    construct_preimage = gie.construct_preimage

    def corrupted(psi, kappa):
        H = construct_preimage(psi, kappa)
        for a in range(1, H.kappa + 1):
            H.set(a, 2, 1, H[a, 1, 1])
        return H

    monkeypatch.setattr(gie, "construct_preimage", corrupted)
    code, report = run(["verify-lemma", "--n", "3", "--m", "2", "--kappa", "2",
                        "--random-psi", "0"], capsys)
    assert (code, report["verdict"]) == (EXIT_VIOLATION, "violation")
    results = report["results"]
    assert results["failed_block_level"] == [3, 2]
    assert results["jacobian_rank"] < results["jacobian_rank_expected"]


def _psi_file(tmp_path, psi):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps({"n": len(psi), "m": len(psi[0]), "psi": psi}))
    return str(path)


# pivot columns (1, 1) and (3, 4): the first cannot be rotated to e_1 by a
# rational orthogonal change, the second only by a Householder reflection
@pytest.mark.parametrize("psi", [[["1", "1"], ["0", "1"]], [["3", "3"], ["1", "4"]]])
def test_psi_is_verified_as_given(tmp_path, capsys, psi):
    path = _psi_file(tmp_path, psi)
    code, report = run(["verify-lemma", "--n", "2", "--m", "2", "--kappa", "1",
                        "--psi", path], capsys)
    assert code == EXIT_PASS
    assert report["results"]["cartan_identity_residuals"] == ["0"]
    assert report["results"]["gauss_map_zero"] is True
    assert report["results"]["jacobian_rank"] == 1
    code, report = run(["flag", "--n", "2", "--m", "2", "--kappa", "1",
                        "--psi", path], capsys)
    assert code == EXIT_PASS
    assert report["results"]["cartan_test"] == "ordinary"
    assert report["results"]["characters"] == [1, 3]


@pytest.mark.parametrize("command", ["verify-lemma", "flag"])
@pytest.mark.parametrize("psi,message", [
    ([["1", "0"], ["0", "1"]], "no pivot"),                  # psi^1_m = 0
    ([["1", "2", "0"], ["2", "0", "0"], ["0", "1", "5"]], "no pivot"),
    ([["1", "1"], ["1", "1"]], "det psi"),                  # det psi = 0
])
def test_psi_without_a_pivot_or_singular_is_invalid(tmp_path, capsys, command,
                                                    psi, message):
    n, m = len(psi), len(psi[0])
    code, report = run([command, "--n", str(n), "--m", str(m),
                        "--kappa", str((n - 1) * (m - 1)),
                        "--psi", _psi_file(tmp_path, psi)], capsys)
    assert code == EXIT_INVALID
    assert report["verdict"] == "invalid-input"
    assert message in report["results"]["error"]


def _three_sheet_psi_file(tmp_path, first="1/2"):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(
        {"n": 3, "m": 2, "psi": [[first, "1"], ["2", "0"], ["-1/3", "0"]]}))
    return str(path)


def test_verify_lemma_zero_denominator_is_invalid(tmp_path, capsys):
    code, report = run(["verify-lemma", "--n", "3", "--m", "2", "--kappa", "2",
                        "--psi", _three_sheet_psi_file(tmp_path, "1/0")], capsys)
    assert code == EXIT_INVALID
    assert report["verdict"] == "invalid-input"


@pytest.mark.parametrize("command,kappa", [("verify-lemma", "16"), ("flag", "2")])
def test_psi_shape_mismatch_is_invalid(tmp_path, capsys, command, kappa):
    code, report = run([command, "--n", "5", "--m", "5", "--kappa", kappa,
                        "--psi", _three_sheet_psi_file(tmp_path)], capsys)
    assert code == EXIT_INVALID
    assert report["verdict"] == "invalid-input"
    assert "3 x 2" in report["results"]["error"]


def test_verify_lemma_error_report_echoes_inputs(capsys):
    code, report = run(["verify-lemma", "--n", "2", "--m", "2", "--kappa", "0",
                        "--random-psi", "7"], capsys)
    assert code == EXIT_INVALID
    assert report["inputs"] == {"n": 2, "m": 2, "kappa": 0, "random_psi_seed": 7}


def test_flag_error_report_echoes_inputs(tmp_path, capsys):
    path = _three_sheet_psi_file(tmp_path)
    code, report = run(["flag", "--n", "5", "--m", "5", "--kappa", "2",
                        "--psi", path], capsys)
    assert code == EXIT_INVALID
    assert report["inputs"] == {"n": 5, "m": 5, "kappa": 2, "psi_file": path}


def test_flag_violation_report_echoes_inputs(capsys, monkeypatch):
    # H^1_{1m} + 1 breaks the Cartan identity of a = 1, so the flag check
    # itself must refuse H at the phi-type generator of a = 1, generator
    # 2 of the (2, 2) ideal (after the covector and the Gauss-type form)
    from gielab import gie
    preimage = gie.construct_preimage

    def shifted(psi, kappa):
        H = preimage(psi, kappa)
        H.set(1, 1, H.m, H[1, 1, H.m] + 1)
        return H

    monkeypatch.setattr(gie, "construct_preimage", shifted)
    code, report = run(["flag", "--n", "2", "--m", "2", "--kappa", "1",
                        "--random-psi", "3"], capsys)
    assert code == EXIT_VIOLATION
    assert report["verdict"] == "violation"
    assert report["inputs"] == {"n": 2, "m": 2, "kappa": 1, "random_psi_seed": 3}
    assert report["results"]["error"].startswith("generator 2 has pure-base term (1, 2)")


def test_verify_lemma_requires_psi_source(capsys):
    code, report = run(["verify-lemma", "--n", "2", "--m", "2", "--kappa", "1"],
                       capsys)
    assert code == EXIT_INVALID


@pytest.mark.parametrize("command", ["verify-lemma", "flag"])
def test_psi_file_and_random_psi_together_are_invalid(tmp_path, capsys, command):
    path = str(tmp_path / "psi.json")
    with open(path, "w") as fh:
        json.dump({"n": 2, "m": 2, "psi": [["2", "1"], ["3", "0"]]}, fh)
    code, report = run([command, "--n", "2", "--m", "2", "--kappa", "1",
                        "--psi", path, "--random-psi", "3"], capsys)
    assert code == EXIT_INVALID
    assert "--psi" in report["results"]["error"]
    assert "--random-psi" in report["results"]["error"]
    assert report["inputs"] == {"n": 2, "m": 2, "kappa": 1, "psi_file": path,
                                "random_psi_seed": 3}


@pytest.mark.parametrize("field,value", [("n", 2.0), ("m", 2.5), ("m", True),
                                         ("n", "2")])
def test_psi_shape_must_be_a_json_integer(tmp_path, capsys, field, value):
    doc = {"n": 2, "m": 2, "psi": [["2", "1"], ["3", "0"]]}
    doc[field] = value
    path = str(tmp_path / "psi.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    code, report = run(["verify-lemma", "--n", "2", "--m", "2", "--kappa", "1",
                        "--psi", path], capsys)
    assert code == EXIT_INVALID
    assert f"field '{field}' must be an integer" in report["results"]["error"]


def test_flag_command(capsys):
    code, report = run(["flag", "--n", "2", "--m", "2", "--kappa", "1",
                        "--random-psi", "3"], capsys)
    assert code == EXIT_PASS
    assert report["results"]["cartan_test"] == "ordinary"
    assert report["results"]["characters"] == [1, 3]
    assert report["results"]["volume_form_value"] == "1"


@pytest.mark.parametrize("n,m,kappa", [(2, 2, 1), (3, 4, 7), (5, 3, 9)])
def test_flag_evaluates_the_cartan_residuals_once(capsys, monkeypatch, n, m, kappa):
    # the character count checks the residuals before it writes its rows,
    # and that check is the flag's integrality: build_integral_flag is not run
    from gielab import gie
    calls = []
    residual = gie.cartan_identity_residual

    def counted(H, psi):
        calls.append((H.n, H.m, H.kappa))
        return residual(H, psi)

    def refuse(psi, H, R=None):
        raise AssertionError("flag called build_integral_flag")

    monkeypatch.setattr(gie, "cartan_identity_residual", counted)
    monkeypatch.setattr(gie, "build_integral_flag", refuse)
    code, report = run(["flag", "--n", str(n), "--m", str(m), "--kappa", str(kappa),
                        "--random-psi", "3"], capsys)
    assert code == EXIT_PASS
    assert report["results"]["characters"] == closed_form_characters(n, m, kappa)
    assert calls == [(n, m, kappa)]


def test_sweep_small_grid(capsys):
    code, report = run(["sweep", "--n-range", "2..3", "--m-range", "2..3",
                        "--seeds", "3"], capsys)
    assert code == EXIT_PASS
    assert report["results"]["total"] == 12
    assert report["results"]["violations"] == 0


def test_sweep_frontier_8_to_12(capsys):
    code, report = run(["sweep", "--n-range", "8..12", "--m-range", "8..12",
                        "--seeds", "1"], capsys)
    assert code == EXIT_PASS
    cells = report["results"]["cells"]
    assert len(cells) == 25
    for cell in cells:
        n, m = cell["n"], cell["m"]
        assert cell["pass"] is True
        assert cell["rank"] == n * (n - 1) * m * (m - 1) // 4


def test_sweep_corrupt_injection(capsys):
    code, report = run(["sweep", "--n-range", "2..2", "--m-range", "2..2",
                        "--seeds", "1", "--inject-corrupt"], capsys)
    assert code == EXIT_VIOLATION
    corrupt = [c for c in report["results"]["cells"] if c["seed"] == "corrupt"]
    assert len(corrupt) == 1
    assert corrupt[0]["pass"] is False
    assert corrupt[0]["failed_block_level"] == [3, 2]


def test_sweep_past_the_cell_limit_is_refused_before_any_cell_runs(capsys):
    # both the run and its report grow with the cells, about 130 bytes each:
    # --seeds 10^8 would run for hours and write about 13 GB
    build_parser()  # built once per process; not part of the refusal
    started = time.perf_counter()
    code, report = run(["sweep", "--n-range", "2", "--m-range", "2",
                        "--seeds", str(MAX_SWEEP_CELLS + 1)], capsys)
    assert time.perf_counter() - started < 0.01
    assert code == EXIT_INVALID
    assert report["results"]["error"] == (
        f"a sweep of {MAX_SWEEP_CELLS + 1} cells exceeds the limit {MAX_SWEEP_CELLS}")


def test_sweep_cell_limit_counts_the_corrupted_control(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_SWEEP_CELLS", 2)
    argv = ["sweep", "--n-range", "2", "--m-range", "2", "--seeds", "2"]
    code, report = run(argv, capsys)
    assert code == EXIT_PASS and report["results"]["total"] == 2
    code, report = run(argv + ["--inject-corrupt"], capsys)
    assert code == EXIT_INVALID
    assert report["results"]["error"] == "a sweep of 3 cells exceeds the limit 2"


def test_sweep_empty_range_warns(capsys):
    code, report = run(["sweep", "--n-range", "4..3", "--m-range", "2..2",
                        "--seeds", "1"], capsys)
    assert code == EXIT_PASS
    assert "warning" in report["results"]


def _flat_chart_doc():
    one = [{"exponents": [0, 0], "coefficient": "1"}]
    return {
        "m": 2,
        "g": [[one, []], [[], one]],
        "T": [[one, []], [[], one]],
        "box": [[0, 1], [0, 1]],
        "margin": 0.05,
    }


def test_emt_audit_exact(tmp_path, capsys):
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(_flat_chart_doc()))
    code, report = run(["emt-audit", "--input", str(path), "--backend", "exact"],
                       capsys)
    assert code == EXIT_PASS
    assert report["results"]["identity_holds"] is True
    assert report["results"]["max_identity_residual"] == 0.0
    assert report["results"]["target_dimension"] == 3


def test_emt_audit_numeric(tmp_path, capsys):
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(_flat_chart_doc()))
    code, report = run(["emt-audit", "--input", str(path),
                        "--backend", "numeric"], capsys)
    assert code == EXIT_PASS
    assert report["results"]["max_identity_residual"] < 1e-6


def test_emt_audit_numeric_report_holds_json_booleans(tmp_path):
    # curved det-1 metric g = [[1, y], [y, 1 + y^2]]: the numeric backend
    # compares numpy floats, and the report must still hold real booleans
    def term(c, e):
        return {"exponents": e, "coefficient": c}
    one, y = term("1", [0, 0]), term("1", [0, 1])
    doc = _flat_chart_doc()
    doc["g"] = [[[one], [y]], [[y], [one, term("1", [0, 2])]]]
    chart = tmp_path / "chart.json"
    chart.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["--output", str(out), "emt-audit", "--input", str(chart),
                 "--backend", "numeric"])
    assert code == EXIT_PASS
    with open(out) as fh:
        results = json.load(fh)["results"]
    assert results["identity_holds"] is True
    assert results["conserved"] is False


def test_emt_audit_singular_metric(tmp_path, capsys):
    doc = _flat_chart_doc()
    doc["g"][1][1] = []  # second diagonal entry identically zero
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(doc))
    code, report = run(["emt-audit", "--input", str(path)], capsys)
    assert code == EXIT_INVALID


def test_emt_audit_zero_denominator_is_invalid(tmp_path, capsys):
    doc = _flat_chart_doc()
    doc["T"][0][0] = [{"exponents": [0, 0], "coefficient": "1/0"}]
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(doc))
    code, report = run(["emt-audit", "--input", str(path)], capsys)
    assert code == EXIT_INVALID
    assert report["verdict"] == "invalid-input"


@pytest.mark.parametrize("backend", ["exact", "numeric"])
@pytest.mark.parametrize("entry", [[{"exponents": [True, 0], "coefficient": "1"}],
                                   [{"exponents": [1, 0], "coefficient": "1"},
                                    {"exponents": [True, 0], "coefficient": "1"}]])
def test_emt_audit_boolean_exponent_is_invalid(tmp_path, capsys, entry, backend):
    # [true, 0] used to be read as x_1, and T^11 = x_1 passed the numeric audit
    doc = _flat_chart_doc()
    doc["T"][0][0] = entry
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(doc))
    code, report = run(["emt-audit", "--input", str(path), "--backend", backend], capsys)
    assert code == EXIT_INVALID
    assert report["verdict"] == "invalid-input"
    assert "bad exponent tuple (True, 0) for 2 variables" in report["results"]["error"]


@pytest.mark.parametrize("backend", ["exact", "numeric"])
@pytest.mark.parametrize("e", [MAX_EXPONENT - 1, MAX_EXPONENT, MAX_EXPONENT + 1, 70000])
def test_emt_audit_refuses_an_exponent_past_the_limit(tmp_path, capsys, e, backend):
    # T^11 = x_1^70000 once gave exit 0 on both backends: the exact report
    # read conserved false with max_divergence 0.0, the numeric one conserved
    doc = _flat_chart_doc()
    doc["T"][0][0] = [{"exponents": [e, 0], "coefficient": "1"}]
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(doc))
    code, report = run(["emt-audit", "--input", str(path), "--backend", backend], capsys)
    if e <= MAX_EXPONENT:
        assert (code, report["verdict"]) == (EXIT_PASS, "pass")
        return
    assert (code, report["verdict"]) == (EXIT_INVALID, "invalid-input")
    assert report["results"]["error"].endswith(
        f"tensor entry (1, 1): exponent {e} of x1 is past the limit {MAX_EXPONENT}")


def _named_point(error, prefix):
    """The sample point an error that starts with `prefix` names."""
    assert error.startswith(prefix + " is not finite at sample point "), error
    return json.loads(error.rpartition(" sample point ")[2])


def test_emt_audit_power_overflow_at_a_late_sample_is_invalid(tmp_path, capsys):
    # g_11 = 1 + x_1^2 on [0, 2.4e154]: x_1^2 is finite at the first sample
    # point and overflows at later ones, where Python's float pow raises
    doc = _flat_chart_doc()
    doc["g"][0][0] = [{"exponents": [0, 0], "coefficient": "1"},
                      {"exponents": [2, 0], "coefficient": "1"}]
    doc["box"], doc["margin"] = [[0, 2.4e154], [0, 1]], 0
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(doc))
    code, report = run(["emt-audit", "--input", str(path), "--backend", "numeric"],
                       capsys)
    assert code == EXIT_INVALID
    assert report["verdict"] == "invalid-input"
    x1, _ = _named_point(report["results"]["error"], "metric entry (1, 1)")
    assert math.isinf(x1 * x1)


@pytest.mark.parametrize("backend,prefix", [("exact", "the divergence in component 1"),
                                            ("numeric", "tensor entry (1, 1)")])
def test_emt_audit_overflow_through_a_product_is_invalid(tmp_path, capsys, backend, prefix):
    # T^11 = 10^300 x_1^2 on [0, 10^10] x [0, 1]: T and its divergence
    # 2 10^300 x_1 are beyond the floats through `*`, not through pow; the
    # numeric audit once passed with conserved true, and the exact one
    # reported "max_divergence": Infinity
    doc = _flat_chart_doc()
    doc["T"][0][0] = [{"exponents": [2, 0], "coefficient": str(10 ** 300)}]
    doc["box"] = [[0, 1e10], [0, 1]]
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(doc))
    code, report = run(["emt-audit", "--input", str(path), "--backend", backend], capsys)
    assert (code, report["verdict"]) == (EXIT_INVALID, "invalid-input")
    x1, _ = _named_point(report["results"]["error"], prefix)
    assert 0 < x1 < 1e10


@pytest.mark.parametrize("backend", ["exact", "numeric"])
@pytest.mark.parametrize("field,value", [
    ("box", [[0, math.inf], [0, 1]]), ("box", [[False, True], [0, 1]]),
    ("box", [["0", "1"], [0, 1]]), ("box", [[-1e308, 1e308], [0, 1]]),
    ("box", False), ("margin", "0.1"), ("margin", True)])
def test_chart_box_and_margin_must_be_finite_numbers(tmp_path, capsys, backend, field, value):
    # each was once read as a number, or as no box: a box [0, inf] then put
    # every sample point at infinity, and the audits passed
    doc = _flat_chart_doc()
    doc["T"][0][0] = [{"exponents": [2, 0], "coefficient": "1"}]
    doc[field] = value
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(doc))
    code, report = run(["emt-audit", "--input", str(path), "--backend", backend], capsys)
    assert (code, report["verdict"]) == (EXIT_INVALID, "invalid-input")
    assert f"chart {field} must" in report["results"]["error"]


@pytest.mark.parametrize("value", [2.7, 2.0, False])
def test_chart_dimension_must_be_a_json_integer(tmp_path, capsys, value):
    doc = _flat_chart_doc()
    doc["m"] = value
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(doc))
    code, report = run(["emt-audit", "--input", str(path)], capsys)
    assert code == EXIT_INVALID
    assert "field 'm' must be an integer" in report["results"]["error"]


@pytest.mark.parametrize("margin", [-5, -0.01, math.nan, math.inf])
def test_chart_margin_must_be_finite_and_non_negative(tmp_path, capsys, margin):
    doc = _flat_chart_doc()
    doc["margin"] = margin
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(doc))
    code, report = run(["emt-audit", "--input", str(path)], capsys)
    assert code == EXIT_INVALID
    assert "margin" in report["results"]["error"]


@pytest.mark.parametrize("field,rows", [
    ("g", [[[{"exponents": [0, 0], "coefficient": "1"}], []],
           [[], [{"exponents": [0, 0], "coefficient": "1"}]], [[], []]]),
    ("T", [[[], [], "junk"], [[], []]]),
    ("T", [[[], []]]),
    ("g", {"0": [], "1": []}),
])
def test_chart_arrays_must_be_m_by_m(tmp_path, capsys, field, rows):
    # no row or entry beyond m is dropped unread
    doc = _flat_chart_doc()
    doc[field] = rows
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(doc))
    for backend in ("exact", "numeric"):
        code, report = run(["emt-audit", "--input", str(path), "--backend", backend],
                           capsys)
        assert code == EXIT_INVALID
        assert f"field '{field}' must be 2 rows of 2 entries" in report["results"]["error"]


def test_emt_audit_missing_file(capsys):
    code, report = run(["emt-audit", "--input", "/nonexistent.json"], capsys)
    assert code == EXIT_INVALID


def test_emt_audit_error_reports_echo_inputs(tmp_path, capsys):
    # non-constant det g: refused after the chart loads, so m is known
    doc = _flat_chart_doc()
    doc["g"][0][0] = [{"exponents": [0, 0], "coefficient": "1"},
                      {"exponents": [1, 0], "coefficient": "1"}]
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(doc))
    code, report = run(["emt-audit", "--input", str(path), "--backend", "exact"],
                       capsys)
    assert code == EXIT_INVALID
    assert report["inputs"] == {"input": str(path), "backend": "exact", "m": 2}
    # unreadable file: refused before any chart exists
    code, report = run(["emt-audit", "--input", "/nonexistent.json",
                        "--backend", "numeric"], capsys)
    assert code == EXIT_INVALID
    assert report["inputs"] == {"input": "/nonexistent.json", "backend": "numeric"}


def test_emt_audit_perturbed_christoffel_symbol_is_a_violation(tmp_path, capsys,
                                                               monkeypatch):
    # on the flat chart every Gamma vanishes; Gamma^2_{13} = 1 alone breaks
    # the identity in component 2 when T^{13} != T^{31}
    from gielab import emt
    one = [{"exponents": [0, 0, 0], "coefficient": "1"}]
    doc = {"m": 3, "g": [[one if i == j else [] for j in range(3)] for i in range(3)],
           "T": [[[{"exponents": [0, 0, 0], "coefficient": str(3 * i + j + 1)}]
                  for j in range(3)] for i in range(3)],
           "box": [[0, 1]] * 3}
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(doc))
    argv = ["emt-audit", "--input", str(path), "--backend", "exact"]
    assert run(argv, capsys)[0] == EXIT_PASS
    unperturbed = emt.christoffel

    def perturbed(*args):
        gamma = unperturbed(*args)
        gamma[1][0][2] = gamma[1][0][2] + 1
        return gamma

    monkeypatch.setattr(emt, "christoffel", perturbed)
    code, report = run(argv, capsys)
    assert code == EXIT_VIOLATION
    assert report["verdict"] == "violation"
    assert report["results"]["error"].endswith("disagree as polynomials in component 2")


def test_output_file_option(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--output", str(out),
                 "ledger", "--n", "2", "--m", "2", "--kappa", "1"])
    assert code == EXIT_PASS
    report = json.loads(out.read_text())
    assert report["verdict"] == "pass"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", [
    ["ledger", "--n", "2", "--m", "2", "--kappa", "1"],          # a pass
    ["ledger", "--n", "4", "--m", "5", "--kappa", "11"],         # invalid input
    ["flag", "--n", "2"],                                        # rejected argv
])
def test_unwritable_output_ends_in_an_invalid_input_report(tmp_path, capsys, command):
    target = str(tmp_path / "no-such-dir" / "x.json")
    code, report = run(["--output", target] + command, capsys)
    assert code == EXIT_INVALID
    assert report["verdict"] == "invalid-input"
    assert report["command"] == command[0]
    assert f"cannot write the report to {target}" in report["results"]["error"]


@pytest.mark.parametrize("argv,message", [
    (["verify-lemma", "--m", "2", "--kappa", "1", "--random-psi", "1"],
     "required: --n"),
    (["no-such-command"], "invalid choice: 'no-such-command'"),
    (["sweep", "--n-range", "-1..2"], "argument --n-range: expected one argument"),
])
def test_rejected_argv_ends_in_a_report(capsys, argv, message):
    code, report = run(argv, capsys)
    assert code == EXIT_INVALID
    assert report["verdict"] == "invalid-input"
    assert message in report["results"]["error"]
    assert report["inputs"] == {"argv": argv}


def test_rejected_argv_report_goes_to_parsed_output(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["--output", str(out), "flag", "--n", "2"]) == EXIT_INVALID
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["command"] == "flag"
    assert "required: --m, --kappa" in report["results"]["error"]


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    out = tmp_path / "report.json"
    calls = [
        ["--output", str(out), "flag", "--n", "2"],  # rejected after --output
        ["verify-lemma", "--n", "3", "--m", "3", "--kappa", "4", "--random-psi", "99"],
        ["flag", "--n", "3"],
        ["sweep", "--n-range", "2..3", "--m-range", "2..3", "--seeds", "1"],
    ]

    def report_of(argv):
        code = main(argv)
        text = capsys.readouterr().out
        if argv[0] == "--output":
            assert text == ""
            text = out.read_text()
        report = json.loads(text)  # fails unless a call without --output used stdout
        report.pop("wall_time_s")
        return code, report

    shared = [report_of(calls[0])]
    first_file = out.read_text()
    shared += [report_of(argv) for argv in calls[1:]]
    assert out.read_text() == first_file
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(report_of(argv))
    assert shared == fresh
    assert [code for code, _ in shared] == [EXIT_INVALID, EXIT_PASS, EXIT_INVALID, EXIT_PASS]


def test_import_does_not_load_numpy():
    # only the numeric EMT backend needs numpy; a CLI start that never
    # reaches it should not pay for importing it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, gielab, gielab.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.strip() == "False"


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("argv,size", [
    (["verify-lemma", "--n", "9999", "--m", "9999", "--kappa", "1",
      "--random-psi", "1"], 9999 * 9999),
    (["verify-lemma", "--n", "9999", "--m", "9999", "--kappa", "99960004",
      "--random-psi", "1"], 99960004 * 9999 * 9999),
    (["verify-lemma", "--n", "2", "--m", "2", "--kappa", str(10 ** 30),
      "--random-psi", "1"], 4 * 10 ** 30),
    (["sweep", "--n-range", "2..9999", "--m-range", "2..3"], 9998 * 2 * 9999 * 3),
])
def test_sizes_beyond_the_limit_are_invalid(capsys, argv, size):
    # `flag` is measured by its own bound instead, in the test below
    code, report = run(argv, capsys)
    assert code == EXIT_INVALID
    error = report["results"]["error"]
    assert f"kappa*n*m = {size}" in error and f"limit {MAX_H_ENTRIES}" in error


@pytest.mark.parametrize("n,m,kappa", [
    (9999, 9999, 99960004), (2, 2, 10 ** 30), (80, 80, 6241),
    (10 ** 4, 10 ** 4, -10 ** 12)])
def test_flag_sizes_beyond_the_bound_are_invalid(capsys, n, m, kappa):
    # the bound is taken at kappa >= 1, so a negative kappa cannot let
    # a large psi through
    size = flag_size_bound(n, m, max(kappa, 1))
    assert size > MAX_H_ENTRIES
    code, report = run(["flag", "--n", str(n), "--m", str(m), "--kappa", str(kappa),
                        "--random-psi", "1"], capsys)
    assert code == EXIT_INVALID
    error = report["results"]["error"]
    assert (f"size of H plus its expansion rows = {size}" in error
            and f"limit {MAX_H_ENTRIES}" in error)


def test_flag_admits_a_cell_beyond_kappa_n_m_within_its_bound(capsys):
    # kappa*n*m = 1,000,100 is above the limit; H and the rows take 101,120
    assert 10001 * 10 * 10 > MAX_H_ENTRIES >= flag_size_bound(10, 10, 10001)
    code, report = run(["flag", "--n", "10", "--m", "10", "--kappa", "10001",
                        "--random-psi", "1"], capsys)
    assert code == EXIT_PASS
    assert report["results"]["characters"] == closed_form_characters(10, 10, 10001)
    assert report["results"]["character_sum"] == dimension_ledger(10, 10, 10001).codim_v


def test_reports_are_deterministic(capsys):
    _, first = run(["verify-lemma", "--n", "3", "--m", "3", "--kappa", "4",
                    "--random-psi", "99"], capsys)
    _, second = run(["verify-lemma", "--n", "3", "--m", "3", "--kappa", "4",
                     "--random-psi", "99"], capsys)
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert first == second


# -- the closing property: any parseable argv ends in one report ----------

_junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                  st.floats(-3, 3), st.sampled_from([math.nan, math.inf]),
                  st.lists(st.integers(-1, 2), max_size=2),
                  st.fixed_dictionaries({"x": st.integers()}))
# rationals as the schema wants them, zero denominators included
_rational = st.one_of(st.integers(-3, 3).map(str),
                      st.tuples(st.integers(-3, 3), st.integers(0, 3))
                      .map(lambda pq: f"{pq[0]}/{pq[1]}"))
_value = st.one_of(_rational, _rational, _junk, st.just("1e999"))


def _grid(draw, rows, cols, cell):
    """A rows x cols list of cells, or now and then a ragged or wrong one."""
    if draw(st.integers(0, 4)) == 0:
        rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    grid = [[draw(cell) for _ in range(cols)] for _ in range(rows)]
    if grid and draw(st.integers(0, 9)) == 0:
        grid[-1] = grid[-1][:-1]
    return grid


def _spoil(draw, doc):
    """Drop a key or replace a field by junk, or leave the document whole."""
    choice = draw(st.integers(0, 5))
    if choice == 0:
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif choice == 1:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_junk)
    elif choice == 2:
        return draw(_junk)
    return doc


# well-formed rationals only, so that a whole psi file is often verifiable
_exact = st.tuples(st.integers(-3, 3), st.integers(1, 3)).map(
    lambda pq: f"{pq[0]}/{pq[1]}")


@st.composite
def _psi_docs(draw, n, m):
    doc = {"n": n, "m": m, "psi": _grid(draw, n, m, draw(st.sampled_from([_value, _exact])))}
    return _spoil(draw, doc)


def _verifiable(argv, files):
    """True for verify-lemma on a well-formed psi file that matches --n and
    --m, with a pivot psi^i_{Lambda minus m} != 0 at some i < n, kappa at
    least (n-1)(m-1) and det psi != 0 at n = m = 2: psi as given, with no
    other condition."""
    doc = files.get("psi.json")
    if argv[0] != "verify-lemma" or not isinstance(doc, dict):
        return False
    opts = dict(a[2:].split("=", 1) for a in argv[1:])
    n, m, kappa = int(opts["n"]), int(opts["m"]), int(opts["kappa"])
    try:
        psi = [[Fraction(str(v)) for v in row] for row in doc["psi"]]
    except (KeyError, TypeError, ValueError, ArithmeticError):
        return False
    if (type(doc.get("n")), type(doc.get("m"))) != (int, int) or (doc["n"], doc["m"]) != (n, m):
        return False
    if min(n, m) < 2 or [len(row) for row in psi] != [m] * n or kappa < (n - 1) * (m - 1):
        return False
    if not any(psi[i][m - 1] for i in range(n - 1)):
        return False
    return (n, m) != (2, 2) or psi[0][0] * psi[1][1] != psi[0][1] * psi[1][0]


@st.composite
def _poly_docs(draw, m):
    term = st.fixed_dictionaries({
        "exponents": st.one_of(st.lists(st.integers(0, 2), min_size=m, max_size=m),
                               st.lists(st.one_of(st.integers(-1, 2), st.floats(0, 2)),
                                        max_size=3)),
        "coefficient": _value})
    return draw(st.one_of(st.lists(term, max_size=2), _junk))


@st.composite
def _chart_docs(draw, m):
    one = [{"exponents": [0] * m, "coefficient": "1"}]
    if draw(st.booleans()):  # the flat metric, so that T gets audited
        g = [[one if i == j else [] for j in range(m)] for i in range(m)]
    else:
        g = _grid(draw, m, m, _poly_docs(m))
    doc = {"m": m, "g": g, "T": _grid(draw, m, m, _poly_docs(m)),
           "box": draw(st.one_of(st.just([[0, 1]] * m), _junk,
                                 st.lists(st.lists(st.floats(-2, 2), max_size=3),
                                          max_size=3))),
           "margin": draw(st.one_of(st.just(0.05), st.floats(-1, 2), _junk))}
    return _spoil(draw, doc)


@st.composite
def _invocations(draw):
    """(argv, {file name: JSON document}) for one CLI call."""
    small = st.integers(-1, 4)
    command = draw(st.sampled_from(["verify-lemma", "flag", "ledger", "sweep",
                                    "emt-audit"]))
    if command == "sweep":
        # a cell of 9999 asks for an H of 10^8 entries: refused by size
        span = st.one_of(st.tuples(small, small).map(lambda t: f"{t[0]}..{t[1]}"),
                         small.map(str),
                         st.sampled_from(["", "x", "2..", "..3", "2..x", "2.5", "-",
                                          "9999", "2..9999"]))
        return [command, f"--n-range={draw(span)}", f"--m-range={draw(span)}",
                f"--seeds={draw(st.integers(-1, 2))}"] + draw(
                    st.sampled_from([[], ["--inject-corrupt"]])), {}
    if command == "emt-audit":
        m = draw(st.integers(0, 3))
        backend = draw(st.sampled_from(["exact", "numeric"]))
        return [command, "--input=chart.json", f"--backend={backend}"], {
            "chart.json": draw(_chart_docs(m))}
    n, m = draw(st.integers(-1, 3)), draw(st.integers(-1, 3))
    argv = [command, f"--n={n}", f"--m={m}", f"--kappa={draw(st.integers(-1, 5))}"]
    if command == "ledger":
        return argv, {}
    source = draw(st.sampled_from(["file", "seed", "none", "missing"]))
    if source == "seed":
        return argv + [f"--random-psi={draw(st.integers(0, 9))}"], {}
    if source == "file":
        psi_n, psi_m = draw(st.sampled_from([(n, m), (3, 2), (2, 2)]))
        return argv + ["--psi=psi.json"], {"psi.json": draw(_psi_docs(psi_n, psi_m))}
    if source == "missing":
        return argv + ["--psi=absent.json"], {}
    return argv, {}


@st.composite
def _psi_invocations(draw):
    """verify-lemma or flag on a psi file of the right shape, kappa near the
    minimum: mostly verifiable, now and then without a pivot or singular."""
    n, m = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    kappa = (n - 1) * (m - 1) + draw(st.integers(-1, 1))
    command = draw(st.sampled_from(["verify-lemma", "flag"]))
    doc = {"n": n, "m": m, "psi": [[draw(_exact) for _ in range(m)] for _ in range(n)]}
    return [command, f"--n={n}", f"--m={m}", f"--kappa={kappa}", "--psi=psi.json"], {
        "psi.json": doc}


def _chart_with(**fields):
    return {"chart.json": dict(_flat_chart_doc(), **fields)}


_AUDIT = ["emt-audit", "--input=chart.json", "--backend=numeric"]
_FRACTIONAL_T = [[[{"exponents": [1.5, 0], "coefficient": "1"}], []], [[], []]]
_HUGE_T = [[[{"exponents": [0, 0], "coefficient": "1e999"}], []], [[], []]]
_SQUARE_T = [[[{"exponents": [2, 0], "coefficient": "1"}], []], [[], []]]


def _square(rows, m):
    return (isinstance(rows, list) and len(rows) == m
            and all(isinstance(row, list) and len(row) == m for row in rows))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(_invocations(), _psi_invocations()))
# each of these once ended in a traceback (exit 1) or, for ledger, a pass
@example((["verify-lemma", "--n=3", "--m=0", "--kappa=0", "--random-psi=0"], {}))
@example((["ledger", "--n=0", "--m=3", "--kappa=1"], {}))
@example((["verify-lemma", "--n=2", "--m=2", "--kappa=1", "--psi=psi.json"],
          {"psi.json": {"n": 2, "m": math.inf, "psi": [["0", "1"], ["1", "0"]]}}))
@example((_AUDIT, _chart_with(box=True)))
@example((_AUDIT, _chart_with(T=_FRACTIONAL_T, box=[[-2, -1], [0, 1]])))
@example((_AUDIT, _chart_with(T=_HUGE_T)))
# a box beyond the floats, and a T beyond them on a finite box, once gave
# "max_divergence": Infinity, which is not JSON
@example((["emt-audit", "--input=chart.json", "--backend=exact"],
          _chart_with(T=_SQUARE_T, box=[[0, math.inf], [0, 1]])))
@example((["emt-audit", "--input=chart.json", "--backend=exact"],
          _chart_with(T=[[[{"exponents": [2, 0], "coefficient": str(10 ** 300)}], []], [[], []]],
                      box=[[0, 1e10], [0, 1]])))
# an m = 0 chart was refused only because numpy saw no matrix in it
@example((["emt-audit", "--input=chart.json", "--backend=exact"],
          {"chart.json": {"m": 0, "g": [], "box": [], "margin": 0.05}}))
# non-integer shapes were once truncated, and a negative margin sampled
# outside the box
@example((["verify-lemma", "--n=2", "--m=2", "--kappa=1", "--psi=psi.json"],
          {"psi.json": {"n": 2, "m": 2.5, "psi": [["0", "1"], ["1", "0"]]}}))
@example((_AUDIT, _chart_with(m=2.7)))
@example((_AUDIT, _chart_with(margin=-5)))
# pivot columns that cannot be normalized by a rational rotation were once
# refused
@example((["verify-lemma", "--n=2", "--m=2", "--kappa=1", "--psi=psi.json"],
          {"psi.json": {"n": 2, "m": 2, "psi": [["1", "1"], ["0", "1"]]}}))
@example((["verify-lemma", "--n=3", "--m=2", "--kappa=2", "--psi=psi.json"],
          {"psi.json": {"n": 3, "m": 2, "psi": [["0", "1/2"], ["2", "1"], ["1", "0"]]}}))
# a negative seed count once passed vacuously
@example((["sweep", "--n-range=2..3", "--m-range=2..2", "--seeds=-1"], {}))
# rows and entries beyond m were once dropped unread, and the audit passed
@example((_AUDIT, _chart_with(
    g=[[[{"exponents": [0, 0], "coefficient": "1"}], []],
       [[], [{"exponents": [0, 0], "coefficient": "1"}]], [[], []]],
    T=[[[{"exponents": [0, 0], "coefficient": "1"}], [], "junk"], [[], []]])))
def test_every_accepted_invocation_ends_in_one_report(invocation):
    argv, files = invocation
    verifiable = _verifiable(argv, files)
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in files.items():
            with open(os.path.join(tmp, name), "w") as fh:
                json.dump(doc, fh)
        argv = [a.replace("=", "=" + tmp + os.sep, 1)
                if a.startswith(("--input=", "--psi=")) else a for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    report = strict_json(out.getvalue())  # exactly one JSON document
    assert report["schema"] == "1"
    assert code in (EXIT_PASS, EXIT_VIOLATION, EXIT_INVALID)
    assert code == {"pass": EXIT_PASS, "violation": EXIT_VIOLATION,
                    "invalid-input": EXIT_INVALID}[report["verdict"]]
    if report["command"] in ("verify-lemma", "ledger", "flag"):
        # no fiber rank or base dimension below 2 is valid input
        if min(report["inputs"]["n"], report["inputs"]["m"]) < 2:
            assert code == EXIT_INVALID
    # every well-formed psi with a pivot is verified as given
    if verifiable:
        assert code == EXIT_PASS, report
    if report["command"] == "sweep" and report["inputs"].get("seeds", 0) < 0:
        assert code == EXIT_INVALID
        assert "--seeds" in report["results"]["error"]
    # a shape given as anything but a JSON integer, a chart array of any
    # other shape than m x m, or a negative chart margin, is never truncated
    # or sampled outside the box
    for doc in files.values():
        if isinstance(doc, dict):
            if any(type(doc.get(key, 0)) is not int for key in ("n", "m")):
                assert code == EXIT_INVALID
            if report["command"] == "emt-audit" and not all(
                    _square(doc.get(field), doc.get("m")) for field in ("g", "T")):
                assert code == EXIT_INVALID
            margin = doc.get("margin")
            if type(margin) in (int, float) and margin < 0:
                assert code == EXIT_INVALID
