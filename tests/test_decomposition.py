"""Letter frequencies, the q-eigenspace chart, extreme points of Q, and the
cylindrical decomposition of spectral measures."""

import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from substrum.coincidence import coincidence_matrix, ergodic_classes
from substrum.core import constant_length, is_aperiodic_pansiot, is_primitive, parse_substitution
from substrum.corpus import load
from substrum.decomposition import (
    _extreme_points_exact,
    _negative_direction,
    decompose_lambda,
    eigenspace_F,
    extreme_points_Q,
    letter_frequencies,
)
from substrum.exactlin import _rref
from substrum.reduction import compute_height

# k = 2, and each of the 8 transitive pairs is absorbed by either class with probability 1/2
HALF_ABSORBED = "0 -> 1 3\n1 -> 2 3\n2 -> 1 0\n3 -> 2 0"


def test_letter_frequencies_exact():
    assert letter_frequencies(load("thue_morse")) == (Fraction(1, 2), Fraction(1, 2))
    assert letter_frequencies(load("bijective_nonabelian")) == tuple([Fraction(1, 4)] * 4)
    # Rudin-Shapiro: Perron vector of a doubly-symmetric matrix
    assert letter_frequencies(load("rudin_shapiro")) == tuple([Fraction(1, 4)] * 4)


def test_frequencies_sum_to_one():
    for name in ("height_two", "small_second_eigenvalue", "modified_rudin_shapiro"):
        mu = letter_frequencies(load(name))
        assert sum(mu) == 1
        assert all(x > 0 for x in mu)


def test_eigenspace_F_dimension_is_k():
    for name in ("thue_morse", "bijective_nonabelian", "rudin_shapiro", "modified_rudin_shapiro"):
        z = load(name)
        cls = ergodic_classes(z)
        basis = eigenspace_F(z, cls)
        assert len(basis) == cls.k
        for v in basis:
            assert len(v.class_values) == cls.k
            assert len(v.pair_values) == z.size**2


def test_eigenspace_F_chart_is_bijective():
    # the basis is dual to the classes: basis[i] has class_values = e_i
    z = load("rudin_shapiro")
    basis = eigenspace_F(z, ergodic_classes(z))
    for i, v in enumerate(basis):
        assert v.class_values == tuple(
            Fraction(1) if j == i else Fraction(0) for j in range(len(basis))
        )


@st.composite
def primitive_rules(draw):
    m, q = draw(st.integers(2, 5)), draw(st.integers(2, 3))
    if draw(st.booleans()):
        columns = [draw(st.permutations(range(m))) for _ in range(q)]
        images = [[col[a] for col in columns] for a in range(m)]
    else:
        images = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=q, max_size=q), min_size=m, max_size=m))
    return "\n".join(f"{a} -> " + " ".join(map(str, img)) for a, img in enumerate(images))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(primitive_rules())
@example(HALF_ABSORBED)
@example("0 -> 3 1\n1 -> 1 2\n2 -> 2 3\n3 -> 0 1")  # k = 3, 2 transitive pairs
def test_eigenspace_F_spans_the_nullspace(rules):
    # dim F = k is checked here against sympy, independently of the
    # absorbing-chain argument that lets eigenspace_F skip the nullspace
    z = parse_substitution(rules)
    assume(is_primitive(z).primitive)
    cls = ergodic_classes(z)
    basis = eigenspace_F(z, cls)
    Ct = sympy.Matrix(coincidence_matrix(z).transpose().entries)
    null = (Ct - constant_length(z) * sympy.eye(Ct.rows)).nullspace()
    ours = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in v.pair_values] for v in basis])
    assert ours.rank() == len(null) == len(basis) == cls.k
    assert ours.col_join(sympy.Matrix.hstack(*null).T).rank() == len(null)
    for i, v in enumerate(basis):
        e_i = tuple(int(i == j) for j in range(cls.k))
        assert v.class_values == e_i
        assert all(v.pair_values[a * z.size + b] == e_i[j] for j, c in enumerate(cls.classes) for a, b in c)


def test_eigenspace_F_row_reduces_only_the_transitive_pairs(count_calls):
    # a bijective substitution has no transitive pairs, so nothing to solve
    for name in ("thue_morse", "bijective_nonabelian"):
        z = load(name)
        cls = ergodic_classes(z)
        assert cls.transitive == ()
        assert count_calls((_rref,), lambda: eigenspace_F(z, cls)) == {"_rref": 0}
    z = parse_substitution(HALF_ABSORBED)
    cls = ergodic_classes(z)
    basis = []
    assert count_calls((_rref,), lambda: basis.extend(eigenspace_F(z, cls))) == {"_rref": 1}
    assert cls.k == 2 and len(cls.transitive) == 8
    for v in basis:
        assert {v.pair_values[a * z.size + b] for a, b in cls.transitive} == {Fraction(1, 2)}


def test_extreme_points_bijective_nonabelian_exact():
    # Q is the segment between the all-ones point and the signed point;
    # chart coordinates are exactly {(1, 1), (1, -1/3)}
    ep = extreme_points_Q(load("bijective_nonabelian"))
    assert ep.method == "exact"
    coords = sorted(tuple(p.class_values) for p in ep.points)
    assert coords == [
        (Fraction(1), Fraction(-1, 3)),
        (Fraction(1), Fraction(1)),
    ]


def test_extreme_points_contain_all_ones():
    for name in ("thue_morse", "rudin_shapiro", "modified_rudin_shapiro"):
        ep = extreme_points_Q(load(name))
        assert any(all(x == 1 for x in p.class_values) for p in ep.points)


def chart_points(ep):
    return {tuple(p.class_values) for p in ep.points}


def test_extreme_points_height_two_exact():
    # W(t) = W_0 + t W_1 has the quadratic form s1^2 + s2^2 + 2t s1 s2 on the
    # two block sums, so Q is the segment t in [-1, 1]
    ep = extreme_points_Q(load("height_two"))
    assert ep.method == "exact"
    assert chart_points(ep) == {(1, 1), (1, -1)}


@pytest.mark.parametrize(
    "rules",
    [
        "0 -> 2 1\n1 -> 2 0\n2 -> 1 2",
        "0 -> 1 0 0\n1 -> 0 2 2\n2 -> 0 2 1",
    ],
)
def test_extreme_points_k2_without_common_eigenbasis(rules):
    z = parse_substitution(rules)
    assert ergodic_classes(z).k == 2
    ep = extreme_points_Q(z)
    assert ep.method == "exact"
    assert [tuple(p.class_values) for p in ep.points] == [(1, 1), (1, -1)]


@pytest.mark.parametrize(
    "rules, k",
    [
        ("0 -> 1 0\n1 -> 2 1\n2 -> 0 2", 3),
        ("0 -> 1 0\n1 -> 2 1\n2 -> 3 2\n3 -> 0 3", 4),
        ("0 -> 1 0\n1 -> 2 1\n2 -> 3 2\n3 -> 4 3\n4 -> 0 4", 5),
        ("0 -> 1 0\n1 -> 2 1\n2 -> 3 2\n3 -> 4 3\n4 -> 5 4\n5 -> 0 5", 6),
    ],
)
def test_extreme_points_unsupported_without_rational_eigenbasis(rules, k):
    z = parse_substitution(rules)
    assert ergodic_classes(z).k == k
    # the generic combination of the k associated matrices weighs them by
    # powers up to 27^6, so at k = 6 its characteristic polynomial has a
    # root near 3.9e8; factoring it must not take time that grows with it
    start = time.perf_counter()
    ep = extreme_points_Q(z)
    assert time.perf_counter() - start < 5.0
    assert ep.method == "unsupported"
    assert ep.points == ()


def _random_height_one(rng, draws):
    """Seeded primitive, aperiodic, height-1 substitutions with m <= 4, q <= 3,
    half of the draws column-bijective."""
    for _ in range(draws):
        m, q = rng.randint(2, 4), rng.randint(2, 3)
        if rng.random() < 0.5:
            cols = [rng.sample(range(m), m) for _ in range(q)]
            images = [[col[a] for col in cols] for a in range(m)]
        else:
            images = [[rng.randrange(m) for _ in range(q)] for _ in range(m)]
        z = parse_substitution("\n".join(f"{a} -> " + " ".join(map(str, img)) for a, img in enumerate(images)))
        if is_primitive(z).primitive and is_aperiodic_pansiot(z).aperiodic and compute_height(z).h == 1:
            yield z


def test_extreme_points_k2_random_segment():
    k2 = commuting = 0
    for z in _random_height_one(random.Random(20250101), 150):
        if ergodic_classes(z).k != 2:
            continue
        k2 += 1
        ep = extreme_points_Q(z)
        assert ep.method == "exact"
        assert len(ep.points) == 2 and ep.points[0].class_values == (1, 1)
        # floating-point check of the certificate: PSD at both ends, and an
        # eigenvalue below 0 just past each end
        ends = [p.class_values[1] for p in ep.points]
        basis = eigenspace_F(z)
        W0, W1 = (b.W().real for b in basis)
        for t, other in (ends, ends[::-1]):
            past = float(t) + (1e-3 if t > other else -1e-3)
            assert np.linalg.eigvalsh(W0 + float(t) * W1)[0] > -1e-9
            assert np.linalg.eigvalsh(W0 + past * W1)[0] < -1e-6
        Ws = [b.W_exact() for b in basis]
        if _matmul(*Ws) == _matmul(*Ws[::-1]):
            commuting += 1
            simplex = _extreme_points_exact(basis, Ws)
            assert simplex is not None and chart_points(simplex) == chart_points(ep)
    assert k2 >= 30 and 0 < commuting < k2


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _det(M):
    if not M:
        return 1
    return sum((-1) ** j * M[0][j] * _det([row[:j] + row[j + 1 :] for row in M[1:]]) for j in range(len(M)))


def test_negative_direction_decides_psd():
    # PSD iff every principal minor is >= 0; otherwise the witness x has x^T M x < 0
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 4)
        if rng.random() < 0.5:
            # B^T B is PSD and mostly singular; lowering one diagonal entry may break that
            B = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, n))]
            shift = rng.choice([0, 0, 1])
            M = [[sum(b[i] * b[j] for b in B) - shift * (i == j == n - 1) for j in range(n)] for i in range(n)]
        else:
            M = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    M[i][j] = M[j][i] = rng.randint(-1, 1)
        M = [[Fraction(x) for x in row] for row in M]
        psd = all(
            _det([[M[i][j] for j in idx] for i in idx]) >= 0
            for r in range(1, n + 1)
            for idx in combinations(range(n), r)
        )
        x = _negative_direction(M)
        if psd:
            assert x is None
        else:
            assert x is not None
            assert sum(x[i] * M[i][j] * x[j] for i in range(n) for j in range(n)) < 0


def test_W_of_all_ones_is_all_ones_matrix():
    z = load("thue_morse")
    ep = extreme_points_Q(z)
    ones = next(p for p in ep.points if all(x == 1 for x in p.class_values))
    assert np.array_equal(ones.W(), np.ones((2, 2), dtype=complex))


def test_decompose_lambda_bijective_nonabelian():
    z = load("bijective_nonabelian")
    mu = letter_frequencies(z)
    ep = extreme_points_Q(z)
    signed = next(p for p in ep.points if any(x != 1 for x in p.class_values))
    dec = decompose_lambda(signed, mu)
    # reconstruction and orthogonality both certified at 1e-10 inside the
    # call; pin the headline numbers here
    assert dec.reconstruction_error <= 1e-10
    assert dec.orthogonality_error is not None and dec.orthogonality_error <= 1e-10
    assert len(dec.terms) == 3  # rank-3 W: three cylindrical generators
    for kappa, b in dec.terms:
        assert kappa == pytest.approx(4 / 3, abs=1e-9)


def test_decompose_lambda_thue_morse():
    z = load("thue_morse")
    mu = letter_frequencies(z)
    ep = extreme_points_Q(z)
    signed = next(p for p in ep.points if any(x != 1 for x in p.class_values))
    dec = decompose_lambda(signed, mu)
    assert len(dec.terms) == 1
    kappa, b = dec.terms[0]
    assert kappa == pytest.approx(2.0, abs=1e-9)
    # generator proportional to 1_0 - 1_1
    ratio = b[0] / b[1]
    assert ratio == pytest.approx(-1.0, abs=1e-9)


def test_decompose_all_ones_has_no_orthogonality_constraint():
    z = load("thue_morse")
    ep = extreme_points_Q(z)
    ones = next(p for p in ep.points if all(x == 1 for x in p.class_values))
    dec = decompose_lambda(ones, letter_frequencies(z))
    assert dec.orthogonality_error is None
    assert len(dec.terms) == 1
    kappa, b = dec.terms[0]
    assert kappa == pytest.approx(2.0, abs=1e-9)
    assert b[0] == pytest.approx(b[1], abs=1e-9)  # constant generator
