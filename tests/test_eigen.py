"""Exact eigenvalue machinery: characteristic polynomials, certified
enclosures, the modulus-sqrt(q) test, and the elimination data
(j, pr, kappa) against a sympy reference."""

import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import substrum.eigen as eigen_module
from substrum.core import Alphabet, IntMatrix, Substitution, parse_substitution, substitution_matrix
from substrum.corpus import load
from substrum.exactlin import char_poly_coeffs, factor_integer_poly, poly_mul
from substrum.eigen import (
    EigenvalueRecord,
    char_poly,
    eigenvalue_multiset,
    eigenvalues,
    has_modulus_sqrt_q,
    j_pr_kappa,
    second_eigenvalue_below_sqrt_q,
)
from substrum.reduction import pure_base
from substrum.report import spectrum_report

ENCLOSURE = Fraction(1, 10**10)


def S(name):
    return substitution_matrix(load(name))


def assert_multiset(records, expected, tol=1e-9):
    """Compare the flattened eigenvalue multiset with a list of complex
    numbers, greedily matching within tol."""
    got = [rec.value for rec in eigenvalue_multiset(records)]
    assert len(got) == len(expected)
    remaining = list(expected)
    for value in got:
        best = min(remaining, key=lambda e: abs(e - value))
        assert abs(best - value) < tol, (value, remaining)
        remaining.remove(best)


def test_char_poly_known():
    assert char_poly(S("thue_morse")).coeffs == (1, -2, 0)
    assert char_poly(S("rudin_shapiro")).coeffs == (1, -2, -2, 4, 0)


def test_eigenvalue_multisets_exact():
    sqrt2 = math.sqrt(2)
    omega = (1 + 1j * math.sqrt(3)) / 2
    cases = {
        "thue_morse": [2, 0],
        "bijective_nonabelian": [3, 2, 1, 1],
        "height_two": [3, 1, 0, 0, 0],
        "small_second_eigenvalue": [3, 1, 0],
        "rudin_shapiro": [2, sqrt2, -sqrt2, 0],
        "modified_rudin_shapiro": [2, sqrt2, -sqrt2, 0],
    }
    for name, expected in cases.items():
        assert_multiset(eigenvalues(S(name)), expected)


def test_pure_base_eigenvalues():
    eta = pure_base(load("height_two")).eta
    omega = (1 + 1j * math.sqrt(3)) / 2
    assert_multiset(
        eigenvalues(substitution_matrix(eta)),
        [3, omega, omega.conjugate(), 0, 0, 0],
    )


def test_enclosure_width_below_1e10():
    for name in (
        "thue_morse",
        "bijective_nonabelian",
        "height_two",
        "small_second_eigenvalue",
        "rudin_shapiro",
        "modified_rudin_shapiro",
    ):
        for rec in eigenvalues(S(name)):
            assert rec.modulus_hi - rec.modulus_lo < ENCLOSURE, (name, rec)


def test_rational_eigenvalues_are_exact():
    for rec in eigenvalues(S("bijective_nonabelian")):
        assert rec.rational_value is not None
        assert rec.modulus_lo == rec.modulus_hi == abs(rec.rational_value)


def test_sqrt_q_absent():
    for name, q in [
        ("thue_morse", 2),
        ("bijective_nonabelian", 3),
        ("height_two", 3),
        ("small_second_eigenvalue", 3),
    ]:
        res = has_modulus_sqrt_q(S(name), q)
        assert res.present is False
        assert res.witnesses == ()


def test_sqrt_q_present_real_pair():
    for name in ("rudin_shapiro", "modified_rudin_shapiro"):
        res = has_modulus_sqrt_q(S(name), 2)
        assert res.present is True
        assert spectrum_report(load(name), char_poly(S(name)), res)["sqrt_q"]["exact_witnesses"] is True
        got = sorted(w.real for w in res.witnesses)
        assert got == pytest.approx([-math.sqrt(2), math.sqrt(2)], abs=1e-12)
        assert all(w.imag == 0 for w in res.witnesses)


def test_sqrt_q_present_imaginary_pair():
    # x^2 + 2: eigenvalues +-i*sqrt(2), modulus exactly sqrt(2)
    M = IntMatrix(((0, -2), (1, 0)))
    res = has_modulus_sqrt_q(M, 2)
    assert res.present is True
    got = sorted(w.imag for w in res.witnesses)
    assert got == pytest.approx([-math.sqrt(2), math.sqrt(2)], abs=1e-12)


def test_second_eigenvalue_bound():
    assert second_eigenvalue_below_sqrt_q(S("thue_morse"), 2) is True
    assert second_eigenvalue_below_sqrt_q(S("small_second_eigenvalue"), 3) is True
    # |theta_2| = 2 > sqrt(3)
    assert second_eigenvalue_below_sqrt_q(S("bijective_nonabelian"), 3) is False
    # |theta_2| = sqrt(2) is not *strictly* below sqrt(q)
    assert second_eigenvalue_below_sqrt_q(S("rudin_shapiro"), 2) is False
    # eigenvalues 2 = sqrt(4) and 1: theta_2 = 1 is below sqrt(q), although
    # an eigenvalue of modulus sqrt(q) is present
    assert has_modulus_sqrt_q(IntMatrix(((2, 0), (0, 1))), 4).present is True
    assert second_eigenvalue_below_sqrt_q(IntMatrix(((2, 0), (0, 1))), 4) is True
    assert second_eigenvalue_below_sqrt_q(IntMatrix(((2, 0), (0, 2))), 4) is False


# ---------------------------------------------------------------------------
# Exact circle counts against a 90-digit mpmath reference
# ---------------------------------------------------------------------------

def companion(coeffs):
    """Integer companion matrix of a monic polynomial (leading coefficient first)."""
    n = len(coeffs) - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -coeffs[n - i]
    M = IntMatrix(tuple(tuple(row) for row in rows))
    assert char_poly_coeffs(M) == tuple(coeffs)
    return M


def reference_roots(coeffs):
    """(root, multiplicity) for every root of a monic integer polynomial, each
    irreducible factor solved by mpmath at 90 digits."""
    out = []
    with mpmath.workdps(90):
        for fac, mult in factor_integer_poly(coeffs):
            out += [(r, mult) for r in mpmath.polyroots(fac, maxsteps=500, extraprec=300)]
    return out


def reference_sqrt_q_facts(coeffs, q):
    """(distinct roots of modulus sqrt(q), |theta_2| < sqrt(q)) by the reference."""
    with mpmath.workdps(90):
        roots = reference_roots(coeffs)
        gaps = [(abs(r) ** 2 - q, r, mult) for r, mult in roots]
        on = [complex(r) for gap, r, _mult in gaps if abs(gap) < mpmath.mpf(10) ** -60]
        at_least = sum(mult for gap, _r, mult in gaps if gap > -(mpmath.mpf(10) ** -60))
    return on, at_least <= 1


def assert_matches_reference(coeffs, q):
    M = companion(coeffs)
    res = has_modulus_sqrt_q(M, q)
    on, below = reference_sqrt_q_facts(coeffs, q)
    assert res.present is bool(on)
    assert len(res.witnesses) == len(on)
    for w in res.witnesses:
        assert min(abs(w - r) for r in on) < 1e-9
    assert second_eigenvalue_below_sqrt_q(M, q) is below
    return res


@st.composite
def q_reciprocal_products(draw):
    """(x^d T(x + q/x)) * C(x) for a random monic T of degree <= 3 and a
    random monic cofactor C of degree <= 2."""
    q = draw(st.integers(2, 5))
    coef = st.integers(-6, 6)
    T = [1] + [draw(coef) for _ in range(draw(st.integers(1, 3)))]
    d = len(T) - 1
    F = (0,) * (2 * d + 1)
    for k, t in enumerate(T):  # t multiplies s^(d - k)
        term = (1,)
        for _ in range(d - k):
            term = poly_mul(term, (1, 0, q))
        term = term + (0,) * k  # times x^k = x^d / x^(d - k)
        F = tuple(a + t * b for a, b in zip(F, (0,) * (len(F) - len(term)) + term))
    C = [1] + [draw(st.integers(-4, 4)) for _ in range(draw(st.integers(0, 2)))]
    return poly_mul(F, C), q


@settings(max_examples=60, deadline=None)
@given(q_reciprocal_products())
def test_circle_counts_match_reference(case):
    coeffs, q = case
    assert_matches_reference(coeffs, q)


@pytest.mark.parametrize(
    "coeffs, witnesses",
    [
        # x + 2/x = (-1 +- sqrt(5))/2: both in the band, all four roots on the circle
        ((1, 1, 3, 2, 4), 4),
        # x + 2/x = 1 +- sqrt(7): only 1 - sqrt(7) is in the band
        ((1, -2, -2, -4, 4), 2),
        # (x - 1)(x - 2): the gcd prefilter keeps both, neither is on the circle
        ((1, -3, 2), 0),
    ],
)
def test_sqrt_q_decided_exactly_at_q_2(coeffs, witnesses):
    t0 = time.perf_counter()
    res = assert_matches_reference(coeffs, 2)
    assert time.perf_counter() - t0 < 1.0
    assert len(res.witnesses) == witnesses
    if not witnesses:
        assert res.present is False
        assert res.detail == "all candidate roots of the gcd prefilter excluded exactly"


def test_second_eigenvalue_with_a_quartic_on_the_circle():
    t0 = time.perf_counter()
    assert second_eigenvalue_below_sqrt_q(companion(poly_mul((1, -2), (1, 1, 3, 2, 4))), 2) is False
    assert time.perf_counter() - t0 < 1.0


def record(lo, hi, value=None, exact=None):
    """A hand-made eigenvalue record with modulus enclosure [lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    return EigenvalueRecord(
        value=complex(float(hi)) if value is None else value,
        multiplicity=1,
        factor=(1,),
        modulus_lo=lo,
        modulus_hi=hi,
        modulus_sq_exact=exact,
        is_real=False,
        rational_value=None,
    )


def test_group_by_modulus_separates_close_disjoint_enclosures():
    # disjoint by 2^-100, well inside the 128-bit precision
    eps = Fraction(1, 2**100)
    low, high = record(1, 1), record(1 + eps, 1 + 2 * eps)
    assert eigen_module._group_by_modulus([low, high]) == ((high,), (low,))


def test_group_by_modulus_joins_chains_and_touching_enclosures():
    # the first and last enclosures are disjoint, but the middle one
    # overlaps both
    chain = [record(1, 3), record("5/2", 5), record("9/2", 6)]
    assert len(eigen_module._group_by_modulus(chain)) == 1
    touching = [record(1, 2), record(2, 3)]
    assert len(eigen_module._group_by_modulus(touching)) == 1


def test_group_by_modulus_orders_classes_and_records():
    two = [record(2, 2, value) for value in (-2, 2j, 2, -2j)]
    one = [record(1, 1, value) for value in (-1, 1)]
    classes = eigen_module._group_by_modulus(one + two)
    assert [[r.value for r in cls] for cls in classes] == [[2, 2j, -2j, -2], [1, -1]]


def test_group_by_modulus_rejects_different_exact_moduli_in_one_class():
    with pytest.raises(RuntimeError, match="different exact moduli"):
        eigen_module._group_by_modulus([record(1, 3, exact=Fraction(4)), record(2, 3, exact=Fraction(5))])


def test_char_poly_computes_each_part_once(monkeypatch):
    # theta_2 isolates the roots of x^3 - x + 2, and the modulus classes of
    # the same record reuse them; the classes themselves are kept.  Plain
    # wrappers count the calls: under a profiler sympy's isolation is slow
    calls = []
    for name in ("factor_integer_poly", "_roots_of_factor", "_group_by_modulus"):

        def counting(*args, name=name, real=getattr(eigen_module, name)):
            calls.append(args[0] if name == "_roots_of_factor" else name)
            return real(*args)

        monkeypatch.setattr(eigen_module, name, counting)
    p = char_poly(substitution_matrix(parse_substitution("0 -> 0 3\n1 -> 2 0\n2 -> 1 1\n3 -> 3 2\n")))
    eigen_module._second_eigenvalue_below_sqrt_q(p, 2)
    classes = [p.classes, p.classes]
    assert calls.count("factor_integer_poly") == 1
    assert calls.count("_group_by_modulus") == 1
    assert calls.count((1, 0, -1, 2)) == 1
    isolated = [c for c in calls if isinstance(c, tuple)]
    assert len(isolated) == len(set(isolated))
    assert classes[0] is classes[1]
    assert sum(len(cls) for cls in classes[0]) == 4


@st.composite
def matrices_with_repeated_factors(draw):
    """[[A, C], [0, A]], whose characteristic polynomial is char(A)^2; C
    couples the two copies, so some draws are not diagonalizable."""
    n = draw(st.integers(1, 3))
    entry = st.integers(-2, 2)
    A = [[draw(entry) for _ in range(n)] for _ in range(n)]
    C = [[draw(st.integers(-1, 1)) for _ in range(n)] for _ in range(n)]
    rows = [A[i] + C[i] for i in range(n)] + [[0] * n + A[i] for i in range(n)]
    return IntMatrix(tuple(tuple(row) for row in rows))


def test_j_pr_kappa_factors_once(monkeypatch):
    calls = []

    def counting(coeffs):
        calls.append(tuple(coeffs))
        return factor_integer_poly(coeffs)

    monkeypatch.setattr(eigen_module, "factor_integer_poly", counting)
    j_pr_kappa(S("bijective_nonabelian"), [1, -1, 0, 0])
    assert calls == [char_poly(S("bijective_nonabelian")).coeffs]


def test_j_pr_kappa_bijective_nonabelian():
    # f = 1_letter1 - 1_letter2: survives first on the eigenvalue-2 class
    res = j_pr_kappa(S("bijective_nonabelian"), [1, -1, 0, 0])
    assert res.j == 2
    assert res.kappa == 1
    assert res.theta_modulus_lo <= 2 <= res.theta_modulus_hi
    assert float(res.theta_modulus_hi - res.theta_modulus_lo) < 1e-10


def test_j_pr_kappa_thue_morse():
    res = j_pr_kappa(S("thue_morse"), [1, -1])
    assert res.theta_modulus_hi == 0  # mean-zero f lives on the 0-eigenspace
    assert res.kappa == 1


def test_j_pr_kappa_perron_component():
    res = j_pr_kappa(S("thue_morse"), [1, 1])
    assert res.j == 1
    assert res.theta_modulus_lo == res.theta_modulus_hi == 2


def test_j_pr_kappa_rejects_zero():
    with pytest.raises(ValueError):
        j_pr_kappa(S("thue_morse"), [0, 0])


# ---------------------------------------------------------------------------
# Elimination data from matrix-vector products, against a sympy reference
# ---------------------------------------------------------------------------

def low_degree(M):
    """M when every irreducible factor of char(M) has degree <= 2, whose
    roots have closed forms."""
    assume(all(len(fac) <= 3 for fac, _mult in factor_integer_poly(char_poly_coeffs(M))))
    return M


@st.composite
def substitution_matrices(draw):
    m = draw(st.integers(1, 5))
    q = draw(st.integers(1, 3))
    images = draw(st.lists(
        st.lists(st.integers(0, m - 1), min_size=q, max_size=q).map(tuple), min_size=m, max_size=m,
    ))
    return substitution_matrix(Substitution(Alphabet(tuple(str(a) for a in range(m))), tuple(images)))


@st.composite
def matrices_and_vectors(draw):
    M = low_degree(draw(st.one_of(matrices_with_repeated_factors(), substitution_matrices())))
    b = draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=M.dim, max_size=M.dim))
    assume(any(b))
    return M, b


JORDAN_2 = IntMatrix(((1, 1), (0, 1)))
JORDAN_3 = IntMatrix(((2, 1, 0), (0, 2, 1), (0, 0, 2)))
JORDAN_2_AND_MINUS_1 = IntMatrix(((1, 1, 0), (0, 1, 0), (0, 0, -1)))
# a substitution whose characteristic polynomial has a repeated root
REPEATED_ROOT = substitution_matrix(parse_substitution("0 -> 0 0 1\n1 -> 0 3 0\n2 -> 2 2 1\n3 -> 2 0 3\n"))


@settings(max_examples=150, deadline=None)
@given(matrices_and_vectors())
@example((JORDAN_2, [1, 0]))
@example((JORDAN_3, [1, 0, 0]))
@example((REPEATED_ROOT, [1, -3, 1, 0]))
@example((REPEATED_ROOT, [1, -1, 0, 0]))
@example((JORDAN_2_AND_MINUS_1, [1, 0, 1]))
def test_j_pr_kappa_matches_projector_reference(reference_j_pr_kappa, case):
    M, b = case
    res = j_pr_kappa(M, b)
    got = (res.j, res.theta, res.theta_modulus_lo, res.theta_modulus_hi, res.pr_b, res.kappa)
    assert got == reference_j_pr_kappa(M, b)
    assert all(type(x) is Fraction for x in res.pr_b)


@pytest.mark.parametrize(
    "M, b, j, kappa",
    [
        (JORDAN_2, [1, 0], 1, 2),
        (JORDAN_2, [0, 1], 1, 1),
        (JORDAN_3, [1, 0, 0], 1, 3),
        (JORDAN_3, [0, 0, 5], 1, 1),
        # roots 1 (a Jordan block) and -1 share a modulus class; kappa is the
        # deeper of their chains
        (JORDAN_2_AND_MINUS_1, [1, 0, 1], 1, 2),
        (JORDAN_2_AND_MINUS_1, [0, 1, 1], 1, 1),
        # ker (M^t)^2 holds (1, -3, 1, 0) and (0, -1/2, 0, 1), which M^t does
        # not kill: a Jordan chain of the root 0, third after 3 and 2
        (REPEATED_ROOT, [1, -3, 1, 0], 3, 2),
        (REPEATED_ROOT, [0, Fraction(-1, 2), 0, 1], 3, 2),
    ],
)
def test_j_pr_kappa_jordan_depth(M, b, j, kappa):
    # b lies in one generalized eigenspace, so it is its own projection; at
    # M^t the chain of a Jordan block runs from e_1 to e_n
    res = j_pr_kappa(M, b)
    assert (res.j, res.kappa) == (j, kappa)
    assert res.pr_b == tuple(Fraction(v) for v in b)


def test_j_pr_kappa_rejects_a_wrong_factorization(monkeypatch):
    # without the factor x - 3 no cofactor sees the Perron vector of M^t
    real = factor_integer_poly
    monkeypatch.setattr(eigen_module, "factor_integer_poly", lambda coeffs: real(coeffs)[1:])
    with pytest.raises(RuntimeError, match="must see it"):
        j_pr_kappa(S("bijective_nonabelian"), [1, 1, 1, 1])
    # (x - 1)^2 listed as x - 1 twice multiplies back to char(M), but the
    # class of x - 1 is then not coprime to its complement
    monkeypatch.setattr(eigen_module, "factor_integer_poly", lambda coeffs: [((1, -1), 1), ((1, -1), 1)])
    with pytest.raises(RuntimeError, match="not coprime"):
        j_pr_kappa(JORDAN_2, [1, 0])
    # a factor that does not divide char(M)
    monkeypatch.setattr(eigen_module, "factor_integer_poly", lambda coeffs: [((1, -4), 1)] + real(coeffs)[1:])
    with pytest.raises(RuntimeError, match="does not divide"):
        j_pr_kappa(S("bijective_nonabelian"), [1, 1, 1, 1])


def test_j_pr_kappa_certifies_the_projection(monkeypatch):
    # with a Bezout cofactor twice too large, D n - p is not in ker H(A)
    real = eigen_module.poly_gcdex

    def wrong(a, b):
        s, t, r = real(a, b)
        return s, tuple(2 * c for c in t), r

    monkeypatch.setattr(eigen_module, "poly_gcdex", wrong)
    with pytest.raises(RuntimeError, match="certificate"):
        j_pr_kappa(S("bijective_nonabelian"), [1, -1, 0, 0])
    # with D taken as 1, E = t·H mod char is floor-divided by r, so E is
    # truncated (E / r = x^3/4 - x^2 + 5x/4 - 1/2 for the class of 3) and p
    # leaves ker G(A)
    monkeypatch.undo()
    monkeypatch.setattr(eigen_module, "gcd", lambda *args: abs(args[0]))
    with pytest.raises(RuntimeError, match="certificate"):
        j_pr_kappa(S("bijective_nonabelian"), [-1, -1, -1, 0])
    # E / r = -x^2/3 + 2x/3 + 1 for the class of 2 truncates to -x^2 + 1:
    # p stays in ker G(A), and D n - p leaves ker H(A)
    with pytest.raises(RuntimeError, match="certificate"):
        j_pr_kappa(IntMatrix(((3, 1, 1), (0, 1, 2), (0, 1, 0))), [0, -1, 0])
    # here E / r = (x^2 - x - 1)/5 for the class of -2 truncates to -x - 1,
    # which differs from it by (x + 2)^2 / 5: D n - p stays in ker H(A), and
    # only G(A) p = 0 fails
    with pytest.raises(RuntimeError, match="certificate"):
        j_pr_kappa(IntMatrix(((1, -1, 2), (0, -1, 1), (1, 0, -1))), [1, 1, 1])
