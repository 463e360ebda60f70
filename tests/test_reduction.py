"""Height, pure base, and spectrum comparison."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from substrum.core import (
    fixed_point_prefix,
    is_aperiodic_pansiot,
    is_primitive,
    parse_substitution,
    power_substitution,
    seed_letter,
    substitution_matrix,
)
from substrum.corpus import load
from substrum.eigen import CharPoly, char_poly
from substrum.exactlin import poly_mul
from substrum.reduction import compute_height, pure_base, spectrum_difference_is_trivial

EXPECTED_HEIGHTS = {
    "thue_morse": (1, 1),
    "bijective_nonabelian": (1, 1),
    "height_two": (2, 2),
    "small_second_eigenvalue": (1, 1),
    "rudin_shapiro": (2, 1),  # g0 = 2 is swallowed by q = 2
    "modified_rudin_shapiro": (1, 1),
    "periodic": (2, 2),
}


@pytest.mark.parametrize(
    "name, expected",
    # 0 -> 0 is the one primitive input with q = 1: its fixed point returns at every k
    sorted(EXPECTED_HEIGHTS.items()) + [pytest.param("0 -> 0\n", (1, 1), id="one_letter")],
)
def test_compute_height_corpus(name, expected):
    info = compute_height(parse_substitution(name) if "->" in name else load(name))
    assert (info.g0, info.h) == expected


def prefix_return_gcd(z, n):
    """gcd of the returns of the first letter of U within its first n symbols."""
    letter, power = seed_letter(z)
    u = fixed_point_prefix(z, letter, power, n)
    return int(np.gcd.reduce(np.nonzero(u[1:] == u[0])[0] + 1))


@pytest.mark.parametrize("name", sorted(EXPECTED_HEIGHTS))
def test_height_matches_brute_force_gcd(name):
    z = load(name)
    assert compute_height(z).g0 == prefix_return_gcd(z, 10**5)


def chain_substitution(m):
    """0 -> 0 1 1, i -> (i+1)^3 for 1 <= i <= m - 2, (m-1) -> 0 (m-1) 1: primitive
    and aperiodic, with g0 = 3 and the first return of letter 0 at 3^(m-1)."""
    rules = ["0 -> 0 1 1"] + [f"{i} -> {i + 1} {i + 1} {i + 1}" for i in range(1, m - 1)]
    return parse_substitution("\n".join(rules + [f"{m - 1} -> 0 {m - 1} 1"]) + "\n")


def test_height_of_long_chain_builds_no_prefix():
    # a prefix scan for the first return of 0 would need 3^19 symbols here,
    # past the symbol budget
    info = compute_height(chain_substitution(20))
    assert (info.g0, info.h) == (3, 1)


def test_modified_rudin_shapiro_first_returns_are_misleading():
    # Every return of the first letter within the first 64 symbols sits at a
    # position divisible by 3, yet the full gcd is 1 — the case that rules
    # out any scan-until-stable heuristic.
    z = load("modified_rudin_shapiro")
    assert prefix_return_gcd(z, 64) == 3  # the lie told by short prefixes
    assert compute_height(z).g0 == 1  # the truth


def test_height_of_powers():
    # z^2 of Thue-Morse has q = 4 and still height 1 (this used to exhaust
    # the scan budget under the old heuristic)
    info = compute_height(power_substitution(load("thue_morse"), 2))
    assert (info.g0, info.h) == (1, 1)
    # height-two example keeps h = 2 under squaring: g0 = 2, q^2 = 9 coprime
    info = compute_height(power_substitution(load("height_two"), 2))
    assert (info.g0, info.h) == (2, 2)


def test_compute_height_preconditions():
    with pytest.raises(ValueError, match="constant length"):
        compute_height(parse_substitution("0 -> 0 1\n1 -> 0\n"))
    with pytest.raises(ValueError, match="primitive"):
        compute_height(parse_substitution("0 -> 0 1\n1 -> 1 1\n"))


# ---------------------------------------------------------------------------
# Pure base
# ---------------------------------------------------------------------------

def test_pure_base_trivial_for_height_one():
    z = load("thue_morse")
    base = pure_base(z)
    assert base.height == 1
    assert base.eta == z
    assert base.phi == (("0", ("0",)), ("1", ("1",)))


def test_pure_base_height_two():
    z = load("height_two")
    base = pure_base(z)
    assert base.height == 2
    assert base.eta.size == 6
    # the six 2-blocks of the fixed point at even positions
    assert {token for token, _ in base.phi} == {"14", "25", "34", "15", "24", "35"}
    # phi intertwines: zeta(phi(B)) = phi(eta(B)) for every block letter
    blocks = {token: word for token, word in base.phi}
    tok_of = z.alphabet.index
    for i, (token, word) in enumerate(base.phi):
        image_letters = z.apply(tuple(tok_of(t) for t in word))
        via_eta = tuple(
            tok_of(t)
            for j in base.eta.images[i]
            for t in blocks[base.eta.alphabet.token(j)]
        )
        assert image_letters == via_eta


@st.composite
def graded_substitutions(draw):
    """A substitution whose letters carry a grade c(a) mod h with z(a)_i of
    grade q*c(a) + i, for coprime h in {2, 3} and q in {2, 3}.

    The fixed point from a grade-0 letter then has letter grades n mod h,
    so h divides g0; drawn this way, height > 1 is common instead of rare.
    """
    h, q = draw(st.sampled_from([(2, 3), (3, 2)]))
    sizes = draw(st.lists(st.integers(1, 2), min_size=h, max_size=h))
    grades = [g for g, size in enumerate(sizes) for _ in range(size)]
    by_grade = [[a for a, g in enumerate(grades) if g == c] for c in range(h)]
    return "".join(
        f"{a} -> "
        + " ".join(str(draw(st.sampled_from(by_grade[(q * c + i) % h]))) for i in range(q))
        + "\n"
        for a, c in enumerate(grades)
    )


def cyclic_substitution(m):
    """i -> (i+1) i (i+3), indices mod an even m: the seed letter needs the
    power p = m, h = 2, and the sequences z^j(U) fall in 2 phases."""
    return "".join(f"{i} -> {(i + 1) % m} {i} {(i + 3) % m}\n" for i in range(m))


@settings(max_examples=80, deadline=None)
@given(graded_substitutions())
# p = 2, h = 3 and p = 2, h = 2: the inputs whose pure base the old prefix
# scan never closed
@example("0 -> 1 2\n1 -> 2 3\n2 -> 1 0\n3 -> 3 1\n")
@example("0 -> 3 0 1\n1 -> 2 1 0\n2 -> 1 2 3\n3 -> 0 3 2\n")
# p = 8 and d = 2: eta intertwines with a lower power than z^p
@example(cyclic_substitution(8))
def test_pure_base_is_the_aligned_block_substitution(rules):
    z = parse_substitution(rules)
    assume(is_primitive(z).primitive and is_aperiodic_pansiot(z).aperiodic)
    h = compute_height(z).h
    assume(h > 1)
    base = pure_base(z)
    letter, power = seed_letter(z)
    prefix = fixed_point_prefix(z, letter, power, h * 10**4)
    # d is the number of phases: the least j >= 1 such that z^j(U) starts
    # with a letter that U holds at multiples of h
    d, b = 1, z.images[letter][0]
    while np.flatnonzero(prefix == b)[0] % h:
        d, b = d + 1, z.images[b][0]
    w = power_substitution(z, d)
    tok_of = z.alphabet.index
    blocks = [tuple(tok_of(t) for t in word) for _, word in base.phi]
    # phi o eta = z^d o phi on every block letter, with images of length q^d
    for i, B in enumerate(blocks):
        assert len(base.eta.images[i]) == len(w.images[0])
        assert tuple(x for j in base.eta.images[i] for x in blocks[j]) == w.apply(B)
    assert compute_height(base.eta).h == 1
    # the blocks are the aligned h-blocks of U, in order of first appearance;
    # over 2000 draws of this family every block had appeared by block 56
    grid = prefix.reshape(-1, h)
    _, first = np.unique(grid, axis=0, return_index=True)
    assert blocks == [tuple(int(x) for x in grid[i]) for i in sorted(first)]


@settings(max_examples=100, deadline=None)
@given(graded_substitutions())
def test_height_matches_prefix_gcd_on_graded_draws(rules):
    z = parse_substitution(rules)
    assume(is_primitive(z).primitive)
    assert compute_height(z).g0 == prefix_return_gcd(z, 10**5)


def test_pure_base_spectrum_matches_original_away_from_trivial_roots():
    z = load("height_two")
    eta = pure_base(z).eta
    p1 = char_poly(substitution_matrix(z))
    p2 = char_poly(substitution_matrix(eta))
    assert spectrum_difference_is_trivial(p1, p2).trivial


def test_pure_base_with_seed_power_shares_the_spectrum_of_z_to_the_d():
    # p = 8 and d = 2: eta intertwines with z^2, not with z, so S_eta shares
    # the spectrum of S_z^2 away from 0 and the roots of unity, and not S_z's
    z = parse_substitution(cyclic_substitution(8))
    eta = pure_base(z).eta
    assert len(eta.images[0]) == 3**2
    p_eta = char_poly(substitution_matrix(eta))
    assert spectrum_difference_is_trivial(char_poly(substitution_matrix(power_substitution(z, 2))), p_eta).trivial
    assert not spectrum_difference_is_trivial(char_poly(substitution_matrix(z)), p_eta).trivial


# ---------------------------------------------------------------------------
# Spectrum comparison
# ---------------------------------------------------------------------------

def test_spectrum_difference_trivial_cases():
    # identical polynomials
    p = char_poly(substitution_matrix(load("rudin_shapiro")))
    assert spectrum_difference_is_trivial(p, p).trivial
    # x^2-2x vs x-2: differ by a root at 0 only
    assert spectrum_difference_is_trivial(CharPoly((1, -2, 0)), CharPoly((1, -2))).trivial
    # x-2 vs x-3: genuinely different
    cmp = spectrum_difference_is_trivial(CharPoly((1, -2)), CharPoly((1, -3)))
    assert not cmp.trivial
    # cyclotomic factors are ignored: (x-2)(x-1)(x+1) vs (x-2)(x^2+x+1)
    assert spectrum_difference_is_trivial(CharPoly((1, -2, -1, 2)), CharPoly((1, -1, -1, -2))).trivial


X = sympy.Symbol("x")
# Phi_k for every k with phi(k) <= 4
CYCLOTOMIC = [tuple(int(c) for c in sympy.Poly(sympy.cyclotomic_poly(k, X)).all_coeffs()) for k in (1, 2, 3, 4, 5, 6, 8, 10, 12)]


def reference_leftovers(c1, c2):
    """Each side's part without x and cyclotomic factors (sympy's factor_list
    and Poly.is_cyclotomic), divided by the gcd of the two parts."""
    parts = []
    for coeffs in (c1, c2):
        part = sympy.Poly(1, X)
        for fac, mult in sympy.Poly(list(coeffs), X).factor_list()[1]:
            if fac.degree() > 0 and fac != sympy.Poly(X, X) and not fac.is_cyclotomic:
                part *= fac**mult
        parts.append(part)
    g = sympy.gcd(*parts)
    return tuple(tuple(int(c) for c in sympy.quo(part, g).all_coeffs()) for part in parts)


@st.composite
def factored_pairs(draw):
    """Two monic products of x, Phi_k of degree <= 4, linear factors and
    small monic (possibly reducible) factors, sharing some of them with
    independent multiplicities."""
    piece = st.one_of(
        st.just((1, 0)),
        st.sampled_from(CYCLOTOMIC),
        st.integers(-3, 3).map(lambda c: (1, -c)),
        st.lists(st.integers(-3, 3), min_size=2, max_size=3).map(lambda cs: (1, *cs)),
    )
    shared = draw(st.lists(st.tuples(piece, st.integers(0, 3), st.integers(0, 3)), max_size=3))
    sides = []
    for i in (1, 2):
        out = (1,)
        for fac, *mults in shared:
            for _ in range(mults[i - 1]):
                out = poly_mul(out, fac)
        for fac in draw(st.lists(piece, max_size=2)):
            out = poly_mul(out, fac)
        sides.append(out)
    return tuple(sides)


@settings(max_examples=150, deadline=None)
@given(factored_pairs())
@example(((1, -4, 4), (1, -2)))  # (x - 2)^2 against x - 2: a multiplicity mismatch
@example(((1, -4, 4, 0, 0), poly_mul((1, -4, 4), (1, 0, 1))))  # x^2 and Phi_4 around the same (x - 2)^2
@example((poly_mul((1, 1, 1, 1, 1), (1, 0, -3)), (1, 0, -3)))  # Phi_5 of degree 4
def test_spectrum_difference_matches_sympy(pair):
    c1, c2 = pair
    cmp = spectrum_difference_is_trivial(CharPoly(c1), CharPoly(c2))
    leftover = reference_leftovers(c1, c2)
    assert cmp.leftover == leftover
    assert cmp.trivial is (leftover == ((1,), (1,)))

