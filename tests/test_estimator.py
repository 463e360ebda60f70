"""Correlation estimator: oracles, invariants and the exact lag counts."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from substrum.core import fixed_point_prefix, is_primitive, parse_substitution, seed_letter
from substrum.corpus import load
from substrum.estimator import (
    _lag_counts,
    ball_mass,
    birkhoff_growth,
    correlations,
    dimension_fit,
    expected_zero_coefficient,
    mean_under_frequencies,
    pair_correlations,
    point_mass_at_zero,
    renormalization_check,
)

TM = load("thue_morse")
EX61 = load("bijective_nonabelian")
RS = load("rudin_shapiro")

# the lag-count strategies draw prefix lengths up to a small multiple of this
PREFIX_UNIT = 4096


def tm_autocorrelation(K):
    """Exact autocorrelation of the +/-1 Thue-Morse sequence.

    gamma(0) = 1 and gamma(1) = -1/3 seed the recursion
    gamma(2n) = gamma(n), gamma(2n+1) = -(gamma(n) + gamma(n+1))/2,
    which follows from splitting the defining sum over even/odd indices.
    """
    memo = {0: Fraction(1), 1: Fraction(-1, 3)}

    def gamma(n):
        if n not in memo:
            if n % 2 == 0:
                memo[n] = gamma(n // 2)
            else:
                memo[n] = -(gamma((n - 1) // 2) + gamma((n + 1) // 2)) / 2
        return memo[n]

    return [gamma(k) for k in range(K + 1)]


def test_thue_morse_autocorrelation_oracle():
    K, L = 64, 10**5
    table = correlations(TM, (1, -1), K, L)
    oracle = tm_autocorrelation(K)
    for k in range(K + 1):
        assert abs(table.sigma[k].real - float(oracle[k])) <= 64 / L
        assert abs(table.sigma[k].imag) == 0.0


def test_pair_correlations_near_hermitian():
    # sigma_ab(k) should match the reversed-pair estimate over the shifted
    # window [k, L+k); the two windows share all but k terms, so the gap is
    # at most k/L <= 10/L for the lags checked here.
    K, L = 8, 10**5
    table = pair_correlations(TM, K, L)
    u = fixed_point_prefix(TM, *seed_letter(TM), L + K)
    m = TM.size
    for k in range(K + 1):
        for a in range(m):
            for b in range(m):
                shifted = np.mean((u[k : L + k] == b) & (u[: L] == a))
                assert abs(table.sigma[k, b, a] - shifted) <= 10 / L


def test_diagonal_zero_lag_sums_to_one():
    for z in (TM, EX61, RS):
        table = pair_correlations(z, 16, 10**4)
        total = sum(table.sigma[0, a, a].real for a in range(z.size))
        assert total == pytest.approx(1.0, abs=1e-12)
        # off-diagonal entries at lag zero count impossible events
        off = sum(
            abs(table.sigma[0, a, b])
            for a in range(z.size)
            for b in range(z.size)
            if a != b
        )
        assert off == 0.0


@pytest.mark.parametrize(
    "name,f",
    [("thue_morse", (1, -1)), ("rudin_shapiro", (1, -1, -1, 1))],
)
def test_toeplitz_minors_nonnegative(name, f):
    # positive semidefiniteness of the empirical correlation, checked on
    # leading principal minors of the Toeplitz matrix up to order 4
    z = load(name)
    table = correlations(z, f, 16, 10**5)
    for order in range(1, 5):
        T = np.empty((order, order), dtype=complex)
        for i in range(order):
            for j in range(order):
                d = i - j
                T[i, j] = table.sigma[d] if d >= 0 else np.conj(table.sigma[-d])
        assert np.linalg.det(T).real >= -1e-6


def test_zero_coefficient_matches_expected():
    # holds at rate O(1/L) when |f|^2 is orthogonal to the slow eigenvectors
    for z, f in [(TM, (1, -1)), (EX61, (1, -1, 0, 0))]:
        L = 10**5
        table = correlations(z, f, 16, L)
        assert abs(table.sigma[0].real - expected_zero_coefficient(z, f)) <= 10 / L


def test_zero_coefficient_slow_case():
    # |f|^2 = 1_letter has a component along the second eigenvector, so the
    # empirical zero coefficient converges only like L^(log_3(2) - 1); at
    # L=1e5 the gap sits near 2.5e-4, well outside 10/L.  Pin the slow rate
    # loosely rather than pretending the fast bound applies.
    L = 10**5
    table = correlations(EX61, (1, 0, 0, 0), 16, L)
    gap = abs(table.sigma[0].real - expected_zero_coefficient(EX61, (1, 0, 0, 0)))
    assert gap <= 0.05


def test_expected_zero_coefficient_exact():
    assert expected_zero_coefficient(TM, (1, -1)) == 1
    assert expected_zero_coefficient(EX61, (1, -1, 0, 0)) == Fraction(1, 2)
    assert mean_under_frequencies(TM, (1, -1)) == 0
    assert mean_under_frequencies(TM, (1, 0)) == Fraction(1, 2)
    assert mean_under_frequencies(EX61, (1, 1, 1, 1)) == 1


def brute_lag_counts(z, L, K):
    """N[k, a, b] = #{n < L : u[n] = a, u[n+k] = b}, one bincount per lag."""
    u = fixed_point_prefix(z, *seed_letter(z), L + K).astype(np.int64)
    m = z.size
    return np.stack([
        np.bincount(u[:L] * m + u[k:k + L], minlength=m * m).reshape(m, m)
        for k in range(K + 1)
    ])


@st.composite
def lag_count_cases(draw):
    """A random primitive substitution (m <= 5, q <= 4) with a budget (L, K).

    L = Q n + s with Q = q^p for the seed power p, so L is a multiple of Q
    whenever s = 0.  L reaches 16 * PREFIX_UNIT, so most draws recurse
    through several levels before they reach the empty prefix.
    """
    m = draw(st.integers(1, 5))
    q = draw(st.integers(2, 4))
    images = draw(st.lists(
        st.lists(st.integers(0, m - 1), min_size=q, max_size=q), min_size=m, max_size=m,
    ))
    rules = "".join(f"{a} -> {' '.join(map(str, img))}\n" for a, img in enumerate(images))
    z = parse_substitution(rules)
    assume(is_primitive(z).primitive)
    Q = q ** seed_letter(z)[1]
    L = Q * draw(st.integers(0, 16 * PREFIX_UNIT // Q)) + draw(st.integers(0, Q - 1))
    assume(L >= 1)
    return rules, L, draw(st.sampled_from([0, 1, q, 37, 500]))


@settings(max_examples=60, deadline=None)
@given(lag_count_cases())
# p = 1, Q = 2: L = 2^15 - 1 leaves a tail position at each of fifteen levels
@example(("0 -> 0 1\n1 -> 1 0\n", 2**15 - 1, 500))
# p = 2, Q = 4: L = 1 with K = 0, and L a multiple of Q
@example(("0 -> 1 0\n1 -> 0 1\n", 1, 0))
@example(("0 -> 1 0\n1 -> 0 1\n", 4 * 3001, 37))
# p = 3, Q = 27: L not a multiple of Q
@example(("0 -> 1 2 0\n1 -> 2 0 1\n2 -> 0 0 1\n", 27 * 500 + 5, 500))
# Q = 3, K = 100 >= Q^3: L = 332170 (121212122121 in base 3) recurses through
# twelve levels to the empty prefix, with one or two tail positions at each level
@example(("1 -> 1 1 3\n2 -> 2 3 2\n3 -> 3 2 4\n4 -> 4 4 1\n", 332170, 100))
# K = 3000: the top level's 1001 child rows span three products (341 rows each)
@example(("1 -> 1 1 3\n2 -> 2 3 2\n3 -> 3 2 4\n4 -> 4 4 1\n", 3 * 4100 + 2, 3000))
# L < Q with K >> L: the top level's child is the empty prefix, and every
# count comes from the tail positions
@example(("1 -> 1 1 3\n2 -> 2 3 2\n3 -> 3 2 4\n4 -> 4 4 1\n", 2, 500))
@example(("0 -> 1 2 0\n1 -> 2 0 1\n2 -> 0 0 1\n", 26, 100))
def test_lag_counts_match_direct_count(case):
    rules, L, K = case
    z = parse_substitution(rules)
    counts = _lag_counts(z, L, K)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, brute_lag_counts(z, L, K))


@settings(max_examples=40, deadline=None)
@given(lag_count_cases(), st.integers(1, 3), st.lists(st.integers(-7, 7), min_size=75, max_size=75))
# Q = 3 with one tail position at the top level, where each tail row of W counts
@example(("1 -> 1 1 3\n2 -> 2 3 2\n3 -> 3 2 4\n4 -> 4 4 1\n", 3 * 4100 + 1, 500), 2, list(range(-16, 16)) + [0] * 43)
# L < Q: the top level's weighted transfer stacks act on the empty prefix's zero counts
@example(("1 -> 1 1 3\n2 -> 2 3 2\n3 -> 3 2 4\n4 -> 4 4 1\n", 2, 500), 2, list(range(-16, 16)) + [0] * 43)
def test_projected_lag_counts_match_direct_count(case, c, entries):
    # an integer W of either sign (m*m rows, c columns) projects the top level exactly
    rules, L, K = case
    z = parse_substitution(rules)
    m = z.size
    W = np.array(entries[: m * m * c], dtype=np.int64).reshape(m * m, c)
    projected = _lag_counts(z, L, K, W)
    assert projected.shape == (K + 1, c)
    assert np.array_equal(projected, brute_lag_counts(z, L, K).reshape(K + 1, m * m) @ W)


@st.composite
def rational_functions(draw):
    """A primitive substitution (m <= 5, q <= 3), a budget (L, K) and a
    rational f whose common denominator is at least 2."""
    m = draw(st.integers(2, 5))
    q = draw(st.integers(2, 3))
    images = draw(st.lists(
        st.lists(st.integers(0, m - 1), min_size=q, max_size=q), min_size=m, max_size=m,
    ))
    z = parse_substitution("".join(f"{a} -> {' '.join(map(str, img))}\n" for a, img in enumerate(images)))
    assume(is_primitive(z).primitive)
    f = draw(st.lists(
        st.builds(Fraction, st.integers(-9, 9), st.integers(2, 12)), min_size=m, max_size=m,
    ))
    assume(any(x.denominator > 1 for x in f))
    L = draw(st.integers(1, 8 * PREFIX_UNIT))
    return z, f, L, draw(st.sampled_from([0, 1, q, 37, 300]))


@settings(max_examples=50, deadline=None)
@given(rational_functions())
def test_rational_correlations_are_rounded_once(case):
    # sigma_f(k) = sum_{a,b} f_a conj(f_b) N[k, b, a] / L, exactly, then rounded once
    z, f, L, K = case
    N = brute_lag_counts(z, L, K)
    sigma = correlations(z, f, K, L).sigma
    m = z.size
    for k in range(K + 1):
        exact = Fraction(sum(f[a] * f[b] * int(N[k, b, a]) for a in range(m) for b in range(m)), L)
        assert sigma[k].real == float(exact)
        assert sigma[k].imag == 0.0


@pytest.mark.parametrize("z", [TM, EX61, RS])
def test_pair_correlations_are_the_lag_counts_over_L(z):
    # W = I: every pair table, and every one-hot projection, is N / L bit for bit
    K, L = 100, 3 * 10**4 + 1
    expected = np.swapaxes(brute_lag_counts(z, L, K), 1, 2) / L
    assert np.array_equal(pair_correlations(z, K, L).sigma, expected)
    tokens = z.alphabet.letters
    for a, x in enumerate(tokens):
        for b, y in enumerate(tokens):
            assert np.array_equal(correlations(z, (x, y), K, L).sigma, expected[:, a, b])


def test_correlations_of_a_complex_function():
    # no exactness claim: real and imaginary columns in float64
    K, L = 64, 10**4
    table = pair_correlations(EX61, K, L)
    for f in [(1j, -1, 0.5 - 0.25j, 2), (0.1, -0.1, 0.3, 0)]:
        vec = np.array(f, dtype=complex)
        expected = np.einsum("a,b,kab->k", vec, np.conj(vec), table.sigma)
        assert np.allclose(correlations(EX61, f, K, L).sigma, expected, rtol=0, atol=1e-14)


def test_projected_lag_counts_bound_the_weights():
    # every partial sum is at most L * max|W|, which float64 holds up to 2^53
    counts = _lag_counts(TM, 2**51, 4, np.full((4, 1), -4, dtype=np.int64))
    assert np.all(counts == -(2**53))
    with pytest.raises(ValueError, match="2\\^53"):
        _lag_counts(TM, 2**51, 4, np.full((4, 1), -5, dtype=np.int64))
    with pytest.raises(ValueError, match="2\\^53"):
        _lag_counts(TM, 10**6, 4, np.array([[0], [2**34], [0], [1]], dtype=np.int64))


def test_lag_counts_exact_up_to_2_53():
    # float64 holds every integer up to 2^53, and every count is at most L
    counts = _lag_counts(TM, 2**53, 4)
    assert counts.dtype == np.int64
    assert np.all(counts.sum(axis=(1, 2)) == 2**53)
    with pytest.raises(ValueError, match="2\\^53"):
        _lag_counts(TM, 2**53 + 1, 4)


def test_lag_counts_need_q_at_least_two():
    # with q = 1 the recursion would never shorten the prefix
    with pytest.raises(ValueError, match="q >= 2"):
        pair_correlations(parse_substitution("0 -> 1\n1 -> 0\n"), 4, 10**4)


def test_ball_mass_edges():
    table = correlations(TM, (1, -1), 64, 10**5)
    # radius 1 keeps only the zero lag
    assert ball_mass(table, 1.0) == pytest.approx(table.sigma[0].real)
    with pytest.raises(ValueError, match="lags"):
        ball_mass(table, 1 / 128)
    # 2^-1100 underflows to 0.0, and 1 / 5e-324 overflows to inf
    for r in (2.0**-1100, 5e-324, -0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="radius must be a positive finite float"):
            ball_mass(table, r)


def test_point_mass_nonzero_mean():
    table = correlations(TM, (1, 0), 512, 10**5)
    mean = mean_under_frequencies(TM, (1, 0))
    assert point_mass_at_zero(table) == pytest.approx(abs(mean) ** 2, abs=5e-3)


def test_point_mass_mean_zero_vanishes():
    table = correlations(TM, (1, -1), 512, 10**5)
    assert abs(point_mass_at_zero(table)) <= 5e-3


def test_renormalization_small_budget():
    assert renormalization_check(TM, K=200, L=10**5) <= 1e-2
    assert renormalization_check(EX61, K=243, L=4 * 10**5) <= 1e-2


def test_dimension_fit_signed_indicator():
    fit = dimension_fit(EX61, (1, -1, 0, 0), K=729, L=10**6)
    assert fit.j == 2
    assert fit.kappa == 1
    assert fit.d_pred == pytest.approx(2 - 2 * math.log(2, 3), abs=1e-9)
    assert 0.5 <= fit.d_hat <= 0.95
    assert fit.residual <= 0.2
    assert len(fit.radii) == len(fit.masses) == len(fit.corrected_masses)


@pytest.mark.parametrize(
    "f",
    [
        (1j, -1, 0, 0),
        (1, -1, 0),
        ("x", 1, 0, 0),
        (float("inf"), -1, 0, 0),
        (float("nan"), -1, 0, 0),
        (0, 0, 0, 0),
        (10**200, -(10**200), 0, 0),  # weights f_a f_b overflow float64
        (10**400, -(10**400), 0, 0),  # f_a itself overflows float64
    ],
)
def test_dimension_fit_checks_f_before_counting(f, count_calls):
    calls = count_calls((_lag_counts,), lambda: pytest.raises(ValueError, dimension_fit, EX61, f, K=729, L=10**5))
    assert calls == {"_lag_counts": 0}


@pytest.mark.parametrize("scales", [(7,), (1, 2, 1100), (3, 3, 3, 3, 3)])
def test_dimension_fit_checks_scales_before_counting(scales, count_calls):
    # 2^7 lags are more than K = 64, the radius 2^-1100 underflows to 0.0,
    # and five copies of one scale are a single radius, through which
    # least squares would fit a slope anyway
    if len(set(scales)) < len(scales):
        message = r"scales must be distinct, got \[3, 3, 3, 3, 3\]"
    else:
        message = rf"scale n = {max(scales)} needs q\^n = 2\^{max(scales)} lags, more than K = 64"

    def fit():
        with pytest.raises(ValueError, match=message):
            dimension_fit(TM, (1, -1), scales=scales, K=64, L=10**4)

    assert count_calls((_lag_counts,), fit) == {"_lag_counts": 0}


@pytest.mark.parametrize("f", [(10**200, -(10**200), 0, 0), (10**400, -(10**400), 0, 0), (float("nan"), 1, 0, 0)])
def test_correlations_reject_weights_that_are_not_finite(f, count_calls):
    calls = count_calls((_lag_counts,), lambda: pytest.raises(ValueError, correlations, EX61, f, 16, 10**5))
    assert calls == {"_lag_counts": 0}


def test_dimension_fit_builds_no_pair_table(count_calls):
    calls = count_calls(
        (_lag_counts, pair_correlations),
        lambda: dimension_fit(EX61, (1, -1, 0, 0), K=729, L=10**5),
    )
    assert calls == {"_lag_counts": 1, "pair_correlations": 0}


def test_dimension_fit_mean_zero_thue_morse():
    fit = dimension_fit(TM, (1, -1), K=4096, L=10**6)
    assert fit.d_hat >= 1.5
    assert fit.d_pred is None
    assert "o(r" in fit.prediction


def test_dimension_fit_default_scales_reach_exact_power():
    # math.log(3**5, 3) is 4.999999999999999; the top scale must not be lost
    fit = dimension_fit(EX61, (1, -1, 0, 0), K=3**5, L=10**5)
    assert fit.scales == (1, 2, 3, 4, 5)


def test_dimension_fit_needs_q_at_least_two():
    with pytest.raises(ValueError, match="q >= 2"):
        dimension_fit(parse_substitution("0 -> 1\n1 -> 0\n"), (1, -1), K=64, L=10**4)


def test_dimension_fit_rejects_few_scales():
    with pytest.raises(ValueError, match="scale"):
        dimension_fit(EX61, (1, -1, 0, 0), scales=[1, 2, 3], K=729, L=10**5)


def test_birkhoff_growth():
    flat = birkhoff_growth(TM, (1, -1))
    assert flat.exponent <= 0.05
    assert all(s == 1.0 for s in flat.max_sums)
    full = birkhoff_growth(TM, (1, 1))
    assert full.exponent >= 0.95
    slow = birkhoff_growth(EX61, (1, -1, 0, 0))
    assert slow.exponent == pytest.approx(math.log(2, 3), abs=0.08)
    with pytest.raises(ValueError):
        birkhoff_growth(TM, (0, 0))
