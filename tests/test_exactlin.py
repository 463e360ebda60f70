"""Exact integer and rational algebra, checked against sympy as a reference."""

import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import substrum.exactlin as exactlin
from substrum.core import Alphabet, IntMatrix, Substitution, substitution_matrix
from substrum.exactlin import (
    char_poly_coeffs,
    factor_integer_poly,
    poly_divmod,
    poly_gcd,
    poly_gcdex,
    poly_mul,
    rational_nullspace,
    rational_rank,
    rational_solve,
)

X = sympy.Symbol("x")

# irreducible over Z but split modulo every prime, so the factors modulo p
# must be recombined
SWINNERTON_DYER_2 = (1, 0, -10, 0, 1)
SWINNERTON_DYER_3 = (1, 0, -40, 0, 352, 0, -960, 0, 576)


def sympy_factors(coeffs):
    content, factors = sympy.factor_list(sympy.Poly(list(coeffs), X))
    assert content == 1
    out = [(tuple(int(c) for c in f.all_coeffs()), int(e)) for f, e in factors]
    return sorted(out, key=lambda fm: (len(fm[0]), fm[0]))


def cyclotomic_product(n):
    out = (1,)
    for d in range(1, n + 1):
        out = poly_mul(out, tuple(int(c) for c in sympy.Poly(sympy.cyclotomic_poly(d, X)).all_coeffs()))
    return out


@pytest.mark.parametrize(
    "coeffs",
    [
        SWINNERTON_DYER_2,
        SWINNERTON_DYER_3,
        poly_mul(SWINNERTON_DYER_2, SWINNERTON_DYER_3),
        cyclotomic_product(12),
        poly_mul(poly_mul((1, -2), (1, -2)), poly_mul(poly_mul((1, -2), (1, -2)), (1, -2))),
        (1, 0, 0, 0, 0, 0, 0, 0),
        (1,),
    ],
    ids=["sd2", "sd3", "sd2_sd3", "cyclotomic_1_to_12", "x_minus_2_to_5", "x_to_7", "one"],
)
def test_factor_integer_poly_explicit(coeffs):
    assert factor_integer_poly(coeffs) == sympy_factors(coeffs)


@pytest.mark.parametrize(
    "coeffs, berlekamp_runs",
    [
        ((1, -5, 6), 0),  # two integer roots: (x - 2)(x - 3)
        ((1, 1, -6), 0),  # two integer roots: (x - 2)(x + 3)
        ((1, 0, -2), 0),  # no integer root: irreducible
        ((1, -2, 2), 0),  # no integer root, complex roots
        ((1, 0, 1), 0),  # no integer root, b = 0
        ((1, 0, 0, -2), 0),  # no integer root: irreducible
        ((1, 1, 1, 1), 0),  # one integer root: (x + 1)(x^2 + 1)
        ((1, -2, -2, 4), 0),  # one integer root: (x - 2)(x^2 - 2)
        ((1, -6, 11, -6), 0),  # three integer roots: (x - 1)(x - 2)(x - 3)
        ((1, 0, -7, 6), 0),  # three integer roots: (x - 1)(x - 2)(x + 3)
        ((1, 1, -1, 1, -2), 0),  # two integer roots: (x - 1)(x + 2)(x^2 + 1)
        ((1, 30, -551, 344), 0),  # (x + 43)(x^2 - 13x + 8): a root beyond half the root bound
    ],
)
def test_factor_low_degree_matches_sympy(coeffs, berlekamp_runs, count_calls):
    # every integer root splits off a linear factor, and what is left below
    # degree 4 is irreducible with no Berlekamp run
    got = []
    calls = count_calls((exactlin._berlekamp,), lambda: got.append(factor_integer_poly(coeffs)))
    assert got[0] == sympy_factors(coeffs)
    assert calls == {"_berlekamp": berlekamp_runs}


@pytest.mark.parametrize(
    "coeffs",
    [
        (1, 10**9, 10**9 + 3),  # no integer root, a root near -10^9
        poly_mul((1, -(10**9 + 7)), (1, 10**9 + 9)),  # two integer roots near 10^9
        poly_mul(poly_mul((1, -(10**9 + 7)), (1, 999999937)), (1, 0, -2 * 10**18)),
        (1, 0, 0, -2 * 10**27),  # no integer root, a real root near 1.26e9
    ],
    ids=["quadratic_1e9", "two_roots_1e9", "quartic_1e9", "cubic_1e9"],
)
def test_factor_integer_poly_time_does_not_grow_with_the_roots(coeffs):
    # trying the candidate integer roots one by one would take minutes here
    start = time.perf_counter()
    got = factor_integer_poly(coeffs)
    assert time.perf_counter() - start < 1.0
    assert got == sympy_factors(coeffs)


monic = st.integers(1, 6).flatmap(
    lambda d: st.tuples(st.just(1), *[st.integers(-20, 20)] * d)
)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(monic, st.integers(1, 3)), min_size=1, max_size=4))
def test_factor_integer_poly_matches_sympy_on_products(parts):
    coeffs = (1,)
    for f, mult in parts:
        for _ in range(mult):
            coeffs = poly_mul(coeffs, f)
    assert factor_integer_poly(coeffs) == sympy_factors(coeffs)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-(10**12), 10**12).filter(bool), min_size=1, max_size=5, unique=True), monic)
def test_factor_integer_poly_finds_large_integer_roots(roots, f):
    coeffs = f
    for r in roots:
        coeffs = poly_mul(coeffs, (1, -r))
    assert factor_integer_poly(coeffs) == sympy_factors(coeffs)


@st.composite
def substitution_matrices(draw):
    m = draw(st.integers(1, 10))
    q = draw(st.integers(1, 4))
    images = draw(st.lists(
        st.lists(st.integers(0, m - 1), min_size=q, max_size=q).map(tuple), min_size=m, max_size=m,
    ))
    z = Substitution(Alphabet(tuple(str(a) for a in range(m))), tuple(images))
    return substitution_matrix(z)


@settings(max_examples=60, deadline=None)
@given(substitution_matrices())
def test_factor_integer_poly_matches_sympy_on_substitution_matrices(S):
    coeffs = char_poly_coeffs(S)
    assert factor_integer_poly(coeffs) == sympy_factors(coeffs)


def test_factor_integer_poly_rejects_non_monic():
    with pytest.raises(ValueError, match="monic"):
        factor_integer_poly((2, 1))


@pytest.mark.parametrize("b", [(2, 1), (-1, 0, 3), (), (0, 0)])
def test_poly_divmod_rejects_non_monic(b):
    # integer division stays exact only by a monic divisor
    with pytest.raises(ValueError, match="monic"):
        poly_divmod((1, 2, 3), b)


@st.composite
def integer_matrices(draw):
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n).map(tuple), min_size=n, max_size=n,
    ))
    return IntMatrix(tuple(rows))


@settings(max_examples=60, deadline=None)
@given(integer_matrices())
def test_char_poly_matches_sympy(M):
    expected = tuple(int(c) for c in sympy.Matrix(M.entries).charpoly(X).all_coeffs())
    assert char_poly_coeffs(M) == expected


@settings(max_examples=60, deadline=None)
@given(monic, st.lists(st.integers(-20, 20), min_size=1, max_size=7), monic, st.integers(0, 2))
def test_gcds_match_sympy(a, b, common, shared_power):
    # a common factor common^k makes most gcds nonconstant; b is seldom
    # monic, so the remainder sequence needs pseudo-division
    for _ in range(shared_power):
        a, b = poly_mul(a, common), poly_mul(b, common)
    A, B = sympy.Poly(list(a), X), sympy.Poly(list(b), X)
    g = poly_gcd(a, b)
    assert g == tuple(int(c) for c in sympy.gcd(A, B).monic().all_coeffs())
    s, t, r = poly_gcdex(a, b)
    assert all(type(c) is int for c in s + t + r)
    S, T, R = (sympy.Poly(list(p) or [0], X, domain="ZZ") for p in (s, t, r))
    assert S * A + T * B == R
    assert r == tuple(r[0] * c for c in g)


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


def from_sympy(v):
    return tuple(Fraction(int(x.p), int(x.q)) for x in v)


entries = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def rational_matrices(draw, square=False):
    n = draw(st.integers(1, 6))
    cols = n if square else draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):
        # make the last row a combination of the others: singular when square
        weights = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum(w * row[c] for w, row in zip(weights, rows)) for c in range(cols)]
    return rows


@settings(max_examples=100, deadline=None)
@given(rational_matrices())
def test_nullspace_and_rank_match_sympy(rows):
    M = to_sympy(rows)
    assert rational_nullspace(rows) == [from_sympy(v) for v in M.nullspace()]
    assert rational_rank(rows) == M.rank()


@settings(max_examples=100, deadline=None)
@given(rational_matrices(square=True), st.data())
def test_solve_matches_sympy(rows, data):
    n = len(rows)
    b = data.draw(st.lists(entries, min_size=n, max_size=n))
    M = to_sympy(rows)
    if M.det() == 0:
        with pytest.raises(ValueError, match="singular"):
            rational_solve(rows, b)
        return
    assert rational_solve(rows, b) == from_sympy(M.solve(to_sympy([[x] for x in b])))
