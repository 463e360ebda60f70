"""End-to-end verdicts of the spectral classifier."""

import importlib
import math
import time

import pytest

from substrum.classify import classify
from substrum.coincidence import bijectivity_profile
from substrum.core import parse_substitution, power_substitution, render_substitution, substitution_matrix
from substrum.corpus import CORPUS, corpus_entry, load
from substrum.eigen import char_poly
from substrum.report import analysis_report, classify_report, spectrum_report

APERIODIC = [e.name for e in CORPUS if e.name != "periodic"]


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_corpus_verdicts(entry):
    verdict = classify(entry.substitution())
    assert verdict.verdict == entry.expected_verdict
    assert entry.expected_reason in verdict.reasons


def test_reason_detail():
    assert classify(load("thue_morse")).reasons == (
        "NoSqrtQEigenvalue",
        "SecondEigenvalueSmall",
    )
    assert classify(load("bijective_nonabelian")).reasons == ("NoSqrtQEigenvalue",)
    assert classify(load("height_two")).reasons == ("DekkingCoincidence",)


@pytest.mark.parametrize(
    "rules,tag",
    [
        ("0 -> 0 1\n1 -> 0\n", "not-constant-length"),
        ("0 -> 0 1\n1 -> 1 1\n", "not-primitive"),
        ("0 -> 0 1 0\n1 -> 1 0 1\n", "periodic"),
        ("0 -> 0 1\n1 -> 0 1\n", "pansiot-precondition"),
    ],
)
def test_precondition_failures(rules, tag):
    verdict = classify(parse_substitution(rules))
    assert verdict.verdict == "Inconclusive"
    assert verdict.reasons == (f"PreconditionFailed({tag})",)
    assert verdict.precondition_failed
    assert verdict.eigenvalue_group is None


def test_eigenvalue_groups():
    expected = {
        "thue_morse": (2, 1),
        "bijective_nonabelian": (3, 1),
        "height_two": (3, 2),
        "small_second_eigenvalue": (3, 1),
        "rudin_shapiro": (2, 1),
        "modified_rudin_shapiro": (2, 1),
    }
    for name, group in expected.items():
        assert classify(load(name)).eigenvalue_group == group


@pytest.mark.parametrize("name", APERIODIC)
def test_bijective_never_purely_discrete(name):
    z = load(name)
    if bijectivity_profile(z).bijective:
        # a bijective aperiodic substitution has no coincidence, so the
        # Dekking branch must never fire for it
        assert classify(z).verdict != "PurelyDiscrete"


@pytest.mark.parametrize("name", APERIODIC)
@pytest.mark.parametrize("j", [2, 3])
def test_verdict_invariant_under_powers(name, j):
    z = load(name)
    base = classify(z)
    powered = classify(power_substitution(z, j))
    assert powered.verdict == base.verdict


def test_evidence_complete_for_full_run():
    verdict = classify(load("rudin_shapiro"))
    ev = verdict.evidence
    assert ev["alphabet_size"] == 4
    assert ev["q"] == 2
    assert ev["primitive"] is True
    assert ev["aperiodic"] is True
    assert ev["h"] == 1
    assert ev["bijective"] is False
    assert ev["k"] == 2
    assert ev["transitive_size"] == 8
    assert ev["sqrt_q"].present is True
    assert classify_report(load("rudin_shapiro"), verdict)["evidence"]["sqrt_q"]["exact_witnesses"] is True


def test_inconclusive_states_sufficiency():
    # the criterion is one-directional; an Inconclusive verdict must say so
    for name in ("rudin_shapiro", "modified_rudin_shapiro"):
        verdict = classify(load(name))
        assert "sufficient" in verdict.detail
        assert "not necessary" in verdict.detail


def test_singular_detail_names_gap():
    verdict = classify(load("thue_morse"))
    assert "sqrt" in verdict.detail
    assert verdict.evidence["sqrt_q"].present is False


@pytest.mark.parametrize("name", ["bijective_nonabelian", "height_two"])
def test_analysis_report_lists_each_eigenvalue_once(name):
    # both examples have a repeated eigenvalue, which must appear exactly
    # its multiplicity times, as in the spectrum report
    z = load(name)
    listed = analysis_report(z, classify(z))["eigenvalues"]
    assert len(listed) == z.size
    assert listed == spectrum_report(z, char_poly(substitution_matrix(z)), None)["eigenvalues"]


@pytest.mark.parametrize(
    "rules, verdict, reasons",
    [
        # q = 2, h = 3, seed power p = 2
        ("0 -> 1 2\n1 -> 2 3\n2 -> 1 0\n3 -> 3 1\n", "PurelyDiscrete", ("DekkingCoincidence",)),
        # q = 3, h = 2, p = 2
        (
            "0 -> 3 0 1\n1 -> 2 1 0\n2 -> 1 2 3\n3 -> 0 3 2\n",
            "Singular",
            ("NoSqrtQEigenvalue", "SecondEigenvalueSmall"),
        ),
        (
            "0 -> 3 1 3\n1 -> 2 0 2\n2 -> 1 3 0\n3 -> 0 2 1\n",
            "Singular",
            ("NoSqrtQEigenvalue", "SecondEigenvalueSmall"),
        ),
    ],
)
def test_height_above_one_with_seed_power_two(rules, verdict, reasons):
    z = parse_substitution(rules)
    t0 = time.perf_counter()
    result = classify(z)
    assert time.perf_counter() - t0 < 1.0
    assert (result.verdict, result.reasons) == (verdict, reasons)
    assert result.evidence["h"] > 1


def test_purely_discrete_computes_no_enclosures(monkeypatch):
    # degree-3 factor: its root enclosures are the costliest part of eigen,
    # and a Dekking verdict needs none of them
    def refuse(*args, **kwargs):
        raise AssertionError("classify computed eigenvalue enclosures")

    # the package exports a function named classify, so fetch the modules
    monkeypatch.setattr(importlib.import_module("substrum.eigen"), "eigenvalues", refuse)
    monkeypatch.setattr(importlib.import_module("substrum.classify"), "eigenvalues", refuse, raising=False)
    z = parse_substitution("0 -> 3 2\n1 -> 3 1\n2 -> 2 0\n3 -> 2 1\n")
    assert list(char_poly(substitution_matrix(z)).coeffs) == [1, -2, -1, 1, 2]  # (x - 2)(x^3 - x - 1)
    assert classify(z).verdict == "PurelyDiscrete"


def test_classify_computes_height_and_classes_once(count_calls):
    # the pure base carries the height, and has height 1 by construction, so
    # Dekking's criterion is read off its ergodic classes directly; the
    # public compute_height and ergodic_classes check primitivity and then
    # delegate to these, which do the work
    counted = (
        importlib.import_module("substrum.reduction")._compute_height,
        importlib.import_module("substrum.coincidence")._ergodic_classes,
    )
    verdicts = []
    calls = count_calls(counted, lambda: verdicts.append(classify(load("height_two"))))
    assert verdicts[0].verdict == "PurelyDiscrete"
    assert calls == {"_compute_height": 1, "_ergodic_classes": 1}


@pytest.mark.parametrize("name", ["thue_morse", "bijective_nonabelian", "rudin_shapiro"])
def test_classify_checks_primitivity_once(name, count_calls):
    core = importlib.import_module("substrum.core")
    verdicts = []
    calls = count_calls((core.is_primitive,), lambda: verdicts.append(classify(load(name))))
    assert verdicts[0].verdict == corpus_entry(name).expected_verdict
    assert calls == {"is_primitive": 1}


def test_height_two_evidence():
    verdict = classify(load("height_two"))
    assert verdict.evidence["pure_base_size"] == 6
    assert verdict.evidence["h"] == 2
    assert verdict.verdict == "PurelyDiscrete"


def test_second_eigenvalue_reason_matches_theta():
    # SecondEigenvalueSmall is claimed exactly when |theta_2| < sqrt(q)
    from substrum.eigen import eigenvalues, second_eigenvalue_below_sqrt_q
    from substrum.core import substitution_matrix, constant_length

    for name in APERIODIC:
        z = load(name)
        S = substitution_matrix(z)
        q = constant_length(z)
        below = second_eigenvalue_below_sqrt_q(S, q)
        reasons = classify(z).reasons
        if "SecondEigenvalueSmall" in reasons:
            assert below


@pytest.mark.parametrize("name", ["thue_morse", "bijective_nonabelian", "rudin_shapiro"])
def test_classify_factors_the_char_poly_once(name, tmp_path, capsys, count_calls):
    # the sqrt(q) test and the theta_2 test share one characteristic
    # polynomial and one factorization; so do the eigenvalue listing and the
    # sqrt(q) test of `spectrum`, and `analyze` reads classify's in its
    # listing and char poly
    exactlin = importlib.import_module("substrum.exactlin")
    cli = importlib.import_module("substrum.cli")
    counted = (exactlin.char_poly_coeffs, exactlin.factor_integer_poly)
    z = load(name)
    verdicts = []
    calls = count_calls(counted, lambda: verdicts.append(classify(z)))
    assert verdicts[0].verdict == corpus_entry(name).expected_verdict
    assert calls == {"char_poly_coeffs": 1, "factor_integer_poly": 1}

    path = tmp_path / f"{name}.sub"
    path.write_text(render_substitution(z))
    for command, once in (("spectrum", 1), ("analyze", 1)):
        codes = []
        calls = count_calls(counted, lambda: codes.append(cli.main([command, str(path)])))
        assert codes == [0]
        assert calls == {"char_poly_coeffs": once, "factor_integer_poly": once}, command
    capsys.readouterr()


@pytest.mark.parametrize("name", ["height_two", "periodic"])
def test_analysis_report_factors_when_classify_did_not(name, count_calls):
    # a Dekking verdict and a failed precondition stop classify before the
    # characteristic polynomial, so the report factors it once itself
    exactlin = importlib.import_module("substrum.exactlin")
    counted = (exactlin.char_poly_coeffs, exactlin.factor_integer_poly)
    z = load(name)
    verdict = classify(z)
    assert "char_poly" not in verdict.evidence
    reports = []
    calls = count_calls(counted, lambda: reports.append(analysis_report(z, verdict)))
    assert calls == {"char_poly_coeffs": 1, "factor_integer_poly": 1}
    assert reports[0]["char_poly"] == list(char_poly(substitution_matrix(z)).coeffs)


@pytest.mark.parametrize("name, classes", [
    ("thue_morse", 1), ("bijective_nonabelian", 1), ("height_two", 2),
])
def test_analyze_computes_height_and_classes_once(name, classes, tmp_path, capsys, count_calls):
    # the analysis report reads the height and, at height 1 where the pure
    # base is z itself, the ergodic classes from classify's evidence; at
    # height 2 it classifies the pairs of z as well as those of the pure base
    cli = importlib.import_module("substrum.cli")
    counted = (
        importlib.import_module("substrum.reduction")._compute_height,
        importlib.import_module("substrum.coincidence")._ergodic_classes,
        importlib.import_module("substrum.core").is_primitive,
    )
    path = tmp_path / f"{name}.sub"
    path.write_text(render_substitution(load(name)))
    codes = []
    calls = count_calls(counted, lambda: codes.append(cli.main(["analyze", str(path), "--json"])))
    assert codes == [0]
    assert calls == {"_compute_height": 1, "_ergodic_classes": classes, "is_primitive": 1}
    capsys.readouterr()


@pytest.mark.parametrize("name", ["thue_morse", "bijective_nonabelian"])
def test_verdicts_do_not_group_eigenvalues_by_modulus(name, count_calls):
    # the modulus classes order eigenvalues for display; both eigenvalue
    # decisions are made without them
    eigen = importlib.import_module("substrum.eigen")
    verdicts = []
    calls = count_calls((eigen._group_by_modulus,), lambda: verdicts.append(classify(load(name))))
    assert verdicts[0].reasons[0] == "NoSqrtQEigenvalue"
    assert calls == {"_group_by_modulus": 0}


def test_analyze_isolates_each_factor_once(monkeypatch):
    # classify's theta_2 test isolates the roots of x^3 - x + 2, and the
    # analysis report reuses them rather than isolating the cubic again
    eigen = importlib.import_module("substrum.eigen")
    real, calls = eigen._roots_of_factor, []

    def counting(factor, bits):
        calls.append(factor)
        return real(factor, bits)

    monkeypatch.setattr(eigen, "_roots_of_factor", counting)
    z = parse_substitution("0 -> 0 3\n1 -> 2 0\n2 -> 1 1\n3 -> 3 2\n")
    verdict = classify(z)
    assert verdict.verdict == "Singular"
    report = analysis_report(z, verdict)
    assert len(report["eigenvalues"]) == 4
    assert calls.count((1, 0, -1, 2)) == 1
