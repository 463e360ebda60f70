"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line at the stated budget and tolerance.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
import sympy

from substrum.classify import classify
from substrum.coincidence import coincidence_matrix, dekking_pure_discrete, ergodic_classes
from substrum.core import (
    constant_length,
    fixed_point_prefix,
    parse_substitution,
    power_substitution,
    seed_letter,
    substitution_matrix,
)
from substrum.corpus import CORPUS, load
from substrum.decomposition import decompose_lambda, extreme_points_Q, letter_frequencies
from substrum.eigen import char_poly, eigenvalues, j_pr_kappa
from substrum.estimator import (
    _lag_counts,
    birkhoff_growth,
    correlations,
    dimension_fit,
    mean_under_frequencies,
    point_mass_at_zero,
    renormalization_check,
)
from substrum.reduction import pure_base, spectrum_difference_is_trivial

APERIODIC = [e for e in CORPUS if e.name != "periodic"]


@contextmanager
def criterion(capsys, n, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {n} ({label}): FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {n} ({label}): PASS", flush=True)


def assert_multiset(records, expected, tol=1e-9):
    """Match eigenvalue records against an expected multiset greedily."""
    values = []
    for rec in records:
        values.extend([complex(rec.value)] * rec.multiplicity)
    assert len(values) == len(expected)
    remaining = list(expected)
    for v in values:
        best = min(remaining, key=lambda w: abs(v - w))
        assert abs(v - best) <= tol, (v, remaining)
        remaining.remove(best)


OMEGA = (1 + 1j * math.sqrt(3)) / 2

EXPECTED_MULTISETS = {
    "thue_morse": [2, 0],
    "bijective_nonabelian": [3, 2, 1, 1],
    "height_two": [3, 1, 0, 0, 0],
    "small_second_eigenvalue": [3, 1, 0],
    "rudin_shapiro": [2, math.sqrt(2), -math.sqrt(2), 0],
    "modified_rudin_shapiro": [2, math.sqrt(2), -math.sqrt(2), 0],
}

# pure base of the height-two example: blocks of the fixed point at the
# two residues, with the induced substitution spelled out block by block
EXPECTED_ETA_BLOCKS = {
    ("1", "4"): (("1", "4"), ("2", "5"), ("1", "4")),
    ("2", "5"): (("2", "5"), ("3", "4"), ("1", "5")),
    ("3", "4"): (("2", "5"), ("1", "5"), ("1", "4")),
    ("1", "5"): (("1", "4"), ("2", "4"), ("1", "5")),
    ("2", "4"): (("2", "5"), ("3", "5"), ("1", "4")),
    ("3", "5"): (("2", "5"), ("1", "4"), ("1", "5")),
}


def test_criterion_1_golden_verdicts(capsys):
    with criterion(capsys, 1, "golden verdicts under 1s"):
        for entry in APERIODIC:
            z = entry.substitution()
            start = time.perf_counter()
            verdict = classify(z)
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0, (entry.name, elapsed)
            assert verdict.verdict == entry.expected_verdict, entry.name
            assert entry.expected_reason in verdict.reasons, entry.name

        # the purely discrete case must come with its pure base spelled out
        z = load("height_two")
        pb = pure_base(z)
        assert pb.height == 2
        assert len(pb.phi) == 6
        blocks = {word for _, word in pb.phi}
        assert blocks == set(EXPECTED_ETA_BLOCKS)
        phi = dict(pb.phi)
        for token, word in pb.phi:
            image = pb.eta.images[pb.eta.alphabet.index(token)]
            image_blocks = tuple(phi[pb.eta.alphabet.token(i)] for i in image)
            assert image_blocks == EXPECTED_ETA_BLOCKS[word], word
        assert dekking_pure_discrete(pb.eta)


def test_criterion_2_exact_eigenvalue_multisets(capsys):
    with criterion(capsys, 2, "eigenvalue multisets exact"):
        for name, expected in EXPECTED_MULTISETS.items():
            records = eigenvalues(char_poly(substitution_matrix(load(name))))
            assert_multiset(records, expected)
            for rec in records:
                assert rec.modulus_hi - rec.modulus_lo < Fraction(1, 10**10), name

        eta = pure_base(load("height_two")).eta
        records = eigenvalues(char_poly(substitution_matrix(eta)))
        assert_multiset(records, [3, OMEGA, OMEGA.conjugate(), 0, 0, 0])
        for rec in records:
            assert rec.modulus_hi - rec.modulus_lo < Fraction(1, 10**10)

        # the pure base adds no spectrum beyond trivial factors
        comp = spectrum_difference_is_trivial(
            char_poly(substitution_matrix(load("height_two"))),
            char_poly(substitution_matrix(eta)),
        )
        assert comp.trivial, comp.leftover


def q_multiplicity(z):
    """Multiplicity of x = q as a root of the coincidence matrix char poly."""
    C = coincidence_matrix(z)
    q = constant_length(z)
    x = sympy.symbols("x")
    poly = sympy.Matrix(C.entries).charpoly(x).as_expr()
    mult = 0
    while True:
        quo, rem = sympy.div(poly, x - q, x)
        if rem != 0:
            return mult
        mult += 1
        poly = quo


def test_criterion_3_coincidence_classes(capsys):
    with criterion(capsys, 3, "ergodic class structure"):
        ex61 = ergodic_classes(load("bijective_nonabelian"))
        assert ex61.k == 2
        assert len(ex61.transitive) == 0

        rs = ergodic_classes(load("rudin_shapiro"))
        assert rs.k == 2
        assert len(rs.transitive) == 8

        mrs = ergodic_classes(load("modified_rudin_shapiro"))
        assert mrs.k == 3
        assert len(mrs.transitive) == 0

        # algebraic cross-check: k equals the multiplicity of q exactly
        for entry in APERIODIC:
            z = entry.substitution()
            assert q_multiplicity(z) == ergodic_classes(z).k, entry.name


def test_criterion_4_eigenspace_geometry(capsys):
    with criterion(capsys, 4, "extreme points and decomposition"):
        z = load("bijective_nonabelian")
        ep = extreme_points_Q(z)
        assert ep.method == "exact"
        coords = sorted(tuple(p.class_values) for p in ep.points)
        assert coords == [
            (Fraction(1), Fraction(-1, 3)),
            (Fraction(1), Fraction(1)),
        ]

        signed = next(p for p in ep.points if any(x != 1 for x in p.class_values))
        dec = decompose_lambda(signed, letter_frequencies(z))
        assert dec.reconstruction_error <= 1e-10
        assert dec.orthogonality_error is not None
        assert dec.orthogonality_error <= 1e-10
        assert len(dec.terms) == 3
        for kappa, _ in dec.terms:
            assert abs(kappa - 4 / 3) <= 1e-9


def test_criterion_5_dimension_estimates(capsys):
    with criterion(capsys, 5, "dimension estimates, L=1e7 K=4096"):
        start = time.perf_counter()

        fit = dimension_fit(load("bijective_nonabelian"), (1, -1, 0, 0), K=4096, L=10**7)
        assert 0.64 <= fit.d_hat <= 0.84, fit.d_hat
        assert fit.d_pred == pytest.approx(2 - 2 * math.log(2, 3), abs=1e-9)

        tm = load("thue_morse")
        flat = dimension_fit(tm, (1, -1), K=4096, L=10**7)
        assert flat.d_hat >= 1.5, flat.d_hat

        table = correlations(tm, (1, 0), 4096, 10**7)
        mean = mean_under_frequencies(tm, (1, 0))
        assert abs(point_mass_at_zero(table) - abs(mean) ** 2) <= 5e-3

        assert time.perf_counter() - start <= 120.0


def _transpose_times(S, v):
    """S^t v for the substitution matrix S."""
    return tuple(sum(S[j, i] * x for j, x in enumerate(v)) for i in range(S.dim))


def test_criterion_6_stability_checks(capsys, reference_j_pr_kappa):
    with criterion(capsys, 6, "renormalization and invariance"):
        # exact elimination data of the bijective example: peeled off class
        # by class, each projection of f equals the sympy-built reference,
        # projects to itself and commutes with M^t (every eigenvalue is
        # nonzero), and leaves a rest that only later classes see; the
        # projections sum to f
        z = load("bijective_nonabelian")
        S = substitution_matrix(z)
        for f in ((1, -1, 0, 0), (1, 1, 1, 1), (-1, -1, -1, 0)):
            rest, last_j = tuple(Fraction(v) for v in f), 0
            while any(rest):
                res = j_pr_kappa(S, rest)
                got = (res.j, res.theta, res.theta_modulus_lo, res.theta_modulus_hi, res.pr_b, res.kappa)
                assert got == reference_j_pr_kappa(S, rest)
                assert j_pr_kappa(S, res.pr_b).pr_b == res.pr_b
                assert j_pr_kappa(S, _transpose_times(S, rest)).pr_b == _transpose_times(S, res.pr_b)
                assert res.j > last_j
                rest, last_j = tuple(x - y for x, y in zip(rest, res.pr_b)), res.j

        # empirical correlations renormalize like the bisubstitution says
        dev61 = renormalization_check(z, K=1000, L=10**7)
        assert dev61 <= 1e-2, dev61
        tm = load("thue_morse")
        dev = renormalization_check(tm, K=1000, L=10**7)
        assert dev <= 1e-2, dev
        dev4 = renormalization_check(tm, K=1000, L=4 * 10**7)
        assert dev4 <= 1.5 * dev, (dev, dev4)

        # Birkhoff sums of the signed indicator grow at the predicted rate
        growth = birkhoff_growth(z, (1, -1, 0, 0))
        assert abs(growth.exponent - math.log(2, 3)) <= 0.08, growth.exponent

        # verdicts are a property of the system, not of the generator chosen
        for entry in APERIODIC:
            base = classify(entry.substitution())
            for j in (2, 3):
                powered = classify(power_substitution(entry.substitution(), j))
                assert powered.verdict == base.verdict, (entry.name, j)

        # the recursive lag counts equal a brute-force count over the prefix
        L, K = 2 * 10**5, 128
        u = fixed_point_prefix(tm, *seed_letter(tm), L + K)
        m = tm.size
        head = u[:L].astype(np.int64) * m
        brute = np.stack([
            np.bincount(head + u[k:k + L], minlength=m * m).reshape(m, m)
            for k in range(K + 1)
        ]).astype(np.int64)
        assert np.array_equal(_lag_counts(tm, L, K), brute)


def test_criterion_7_scope_declaration(capsys):
    with criterion(capsys, 7, "surrogate scope declared"):
        # The measure-theoretic statements (purely discrete or singular
        # correlation spectrum) are decided by the exact finite criteria:
        # Dekking coincidence for discreteness, absence of a sqrt(q)
        # eigenvalue for singularity.  The numerical estimates corroborate
        # those verdicts; they are surrogates, never the deciding evidence,
        # and the one-directional criterion is labeled as such.
        for name in ("rudin_shapiro", "modified_rudin_shapiro"):
            verdict = classify(load(name))
            assert verdict.verdict == "Inconclusive"
            assert "sufficient" in verdict.detail
            assert "not necessary" in verdict.detail
        with capsys.disabled():
            print(
                "ACCEPTANCE note: spectral-type verdicts rest on the exact "
                "criteria; estimator output is corroborating only.",
                flush=True,
            )
