"""Parser, fixed-point generation, and combinatorial predicates."""

import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from substrum.core import (
    Alphabet,
    ParseError,
    ResourceBudgetError,
    Substitution,
    allowed_words,
    constant_length,
    fixed_point_prefix,
    is_aperiodic_pansiot,
    is_primitive,
    parse_substitution,
    power_substitution,
    render_substitution,
    seed_letter,
    substitution_matrix,
)
from substrum.corpus import CORPUS, load

TM = load("thue_morse")
RS = load("rudin_shapiro")


# ---------------------------------------------------------------------------
# DSL
# ---------------------------------------------------------------------------

def test_parse_render_round_trip_corpus():
    for entry in CORPUS:
        z = entry.substitution()
        assert parse_substitution(render_substitution(z)) == z


def test_parse_comments_and_blank_lines():
    z = parse_substitution("# a comment\n\n0 -> 0 1\n   # indented comment\n1 -> 1 0\n")
    assert z == TM


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "no rules"),
        ("0 -> 0 1", "has no rule"),  # letter 1 undefined
        ("0 -> \n", "empty image"),
        ("0 1 -> 0\n", "single letter"),
        ("0 -> 0\n0 -> 0 0\n", "duplicate rule"),
        ("just some text\n", "expected"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_substitution(text)


def test_parse_error_carries_location():
    try:
        parse_substitution("0 -> 0 1\nbroken line\n")
    except ParseError as exc:
        assert exc.line == 2
    else:
        pytest.fail("expected ParseError")


def test_multicharacter_tokens():
    z = parse_substitution("ab -> ab cd\ncd -> cd ab\n")
    assert z.alphabet.letters == ("ab", "cd")
    assert parse_substitution(render_substitution(z)) == z


# ---------------------------------------------------------------------------
# Basic structure
# ---------------------------------------------------------------------------

def test_constant_length():
    assert constant_length(TM) == 2
    assert constant_length(load("bijective_nonabelian")) == 3
    assert constant_length(parse_substitution("0 -> 0 1\n1 -> 0\n")) is None


def test_substitution_matrix_known_entries():
    # S[a, b] counts occurrences of a in the image of b
    assert substitution_matrix(TM).entries == ((1, 1), (1, 1))
    assert substitution_matrix(RS).entries == (
        (1, 1, 0, 0),
        (1, 0, 1, 0),
        (0, 1, 0, 1),
        (0, 0, 1, 1),
    )


def test_substitution_matrix_column_sums_are_image_lengths():
    for entry in CORPUS:
        z = entry.substitution()
        S = substitution_matrix(z)
        assert S.column_sums() == tuple(len(img) for img in z.images)


def test_hash_key_stable_and_distinct():
    assert TM.hash_key() == load("thue_morse").hash_key()
    assert RS.hash_key() != load("modified_rudin_shapiro").hash_key()


# ---------------------------------------------------------------------------
# Seed letter and fixed points
# ---------------------------------------------------------------------------

def test_seed_letter_direct():
    assert seed_letter(TM) == (0, 1)


def test_seed_letter_needs_power():
    # 0 -> 10, 1 -> 01: no image starts with its own letter, but the
    # first-letter map is the swap, so z^2(0) starts with 0.
    z = parse_substitution("0 -> 1 0\n1 -> 0 1\n")
    letter, power = seed_letter(z)
    assert power == 2
    w = power_substitution(z, power)
    assert w.images[letter][0] == letter


def quadratic_seed_letter(z):
    """The former seed_letter: walk m steps from every letter onto a cycle."""
    m = z.size
    first = [z.images[a][0] for a in range(m)]
    on_cycle = set()
    for a in range(m):
        x = a
        for _ in range(m):
            x = first[x]
        y = first[x]
        cyc = {x}
        while y != x:
            cyc.add(y)
            y = first[y]
        on_cycle |= cyc
    a = min(on_cycle)
    p = 1
    x = first[a]
    while x != a:
        x = first[x]
        p += 1
    return a, p


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda m: st.lists(st.integers(0, m - 1), min_size=m, max_size=m)
))
def test_seed_letter_matches_quadratic_walk(first):
    # only the first letters matter; several cycles and long tails are common
    z = Substitution(Alphabet(tuple(str(a) for a in range(len(first)))), tuple((b, 0) for b in first))
    assert seed_letter(z) == quadratic_seed_letter(z)


def test_seed_letter_is_linear_in_the_alphabet():
    # every letter is fixed by the first-letter map; walking m steps from
    # each of the 70,000 letters took more than two minutes
    m = 70000
    z = Substitution(
        Alphabet(tuple(str(a) for a in range(m))),
        tuple((a, (7 * a + 1) % m, m - 1 - a) for a in range(m)),
    )
    start = time.perf_counter()
    assert seed_letter(z) == (0, 1)
    assert time.perf_counter() - start < 1.0


def test_fixed_point_prefix_thue_morse_literal():
    u = fixed_point_prefix(TM, 0, 1, 16)
    assert list(u) == [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0]


def test_fixed_point_prefix_property():
    for entry in CORPUS:
        z = entry.substitution()
        letter, power = seed_letter(z)
        short = fixed_point_prefix(z, letter, power, 500)
        long = fixed_point_prefix(z, letter, power, 5000)
        assert np.array_equal(long[:500], short)


def test_fixed_point_is_fixed():
    for entry in CORPUS:
        z = entry.substitution()
        letter, power = seed_letter(z)
        w = power_substitution(z, power)
        u = fixed_point_prefix(z, letter, power, 2000)
        expanded = w.apply(tuple(int(x) for x in u[:100]))
        assert list(expanded[:2000]) == list(u[: min(2000, len(expanded))])


def test_fixed_point_dtype_is_compact():
    u = fixed_point_prefix(TM, 0, 1, 100)
    assert u.dtype == np.uint8


def test_fixed_point_budget():
    with pytest.raises(ResourceBudgetError):
        fixed_point_prefix(TM, 0, 1, 10**6, max_symbols=10**5)


def test_fixed_point_rejects_wrong_seed():
    z = parse_substitution("0 -> 1 0\n1 -> 0 1\n")
    with pytest.raises(ValueError):
        fixed_point_prefix(z, 0, 1, 10)


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

def test_is_primitive_corpus():
    for entry in CORPUS:
        assert is_primitive(entry.substitution()).primitive


def test_is_primitive_counterexample():
    z = parse_substitution("0 -> 0 1\n1 -> 1 1\n")
    assert not is_primitive(z).primitive


def test_aperiodicity():
    assert is_aperiodic_pansiot(TM).aperiodic is True
    assert is_aperiodic_pansiot(load("periodic")).aperiodic is False
    # equal images: not injective on letters, test refuses to answer
    z = parse_substitution("0 -> 0 1\n1 -> 0 1\n")
    assert is_aperiodic_pansiot(z).aperiodic is None


def test_power_substitution_images():
    z2 = power_substitution(TM, 2)
    assert z2.images[0] == (0, 1, 1, 0)
    assert constant_length(z2) == 4


def test_allowed_words_match_long_prefix():
    # every allowed word of a primitive substitution occurs in the fixed
    # point with bounded gaps, so a long prefix is a complete oracle
    for name in ("thue_morse", "rudin_shapiro", "bijective_nonabelian"):
        z = load(name)
        letter, power = seed_letter(z)
        u = tuple(int(x) for x in fixed_point_prefix(z, letter, power, 30000))
        for n in (2, 3):
            windows = {u[i : i + n] for i in range(len(u) - n + 1)}
            assert allowed_words(z, n) == windows, (name, n)


def test_allowed_words_of_a_letter_that_stops_growing(child_env):
    # 1 -> 1 never grows, so it seeds no word of length 3; run in a child
    # so that a hang fails the test instead of stalling the suite
    code = (
        "from substrum.core import allowed_words, parse_substitution\n"
        "print(sorted(allowed_words(parse_substitution('0 -> 0 1\\n1 -> 1\\n'), 3)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env, timeout=30
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[(0, 1, 1), (1, 1, 1)]\n"


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

@st.composite
def substitutions(draw):
    m = draw(st.integers(min_value=2, max_value=4))
    q = draw(st.integers(min_value=2, max_value=3))
    images = tuple(
        tuple(draw(st.integers(min_value=0, max_value=m - 1)) for _ in range(q))
        for _ in range(m)
    )
    return Substitution(Alphabet(tuple("abcd"[:m])), images)


@given(substitutions())
@settings(max_examples=60, deadline=None)
def test_round_trip_random(z):
    assert parse_substitution(render_substitution(z)) == z


@given(substitutions(), st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_power_matrix_identity(z, j):
    assert substitution_matrix(power_substitution(z, j)) == substitution_matrix(z).matpow(j)


@given(substitutions())
@settings(max_examples=40, deadline=None)
def test_allowed_words_closed_under_substitution(z):
    assume(is_primitive(z).primitive)
    words = allowed_words(z, 2)
    for w in words:
        img = z.apply(w)
        for i in range(len(img) - 1):
            assert img[i : i + 2] in words


# ---------------------------------------------------------------------------
# Primitivity and prefixes against numpy references
# ---------------------------------------------------------------------------

def numpy_is_primitive(z):
    """Reference: clipped 0/1 powers of the substitution matrix in numpy."""
    m = z.size
    S = (np.array(substitution_matrix(z).entries) > 0).astype(np.uint8)
    power = S.copy()
    for n in range(1, m * m + 2):
        if power.all():
            return True, n
        power = np.clip(power @ S, 0, 1)
    return False, None


def numpy_fixed_point_prefix(z, letter, power, target_len):
    """Reference: one vectorized substitution round per step, in numpy."""
    w = power_substitution(z, power)
    dtype = np.min_scalar_type(z.size - 1)
    if w.images[letter] == (letter,):
        return np.full(target_len, letter, dtype=dtype)
    flat = np.concatenate([np.array(img, dtype=dtype) for img in w.images])
    lens = np.array([len(img) for img in w.images], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    cur = np.array([letter], dtype=dtype)
    while cur.size < target_len:
        wl = lens[cur]
        run_start = np.repeat(np.cumsum(wl) - wl, wl)
        cur = flat[np.repeat(starts[cur], wl) + (np.arange(int(wl.sum())) - run_start)]
    return cur[:target_len]


def tokens(m):
    return Alphabet(tuple(str(a) for a in range(m)))


def wielandt(m):
    """The primitive m-letter substitution whose matrix has the largest
    exponent, (m - 1)^2 + 1: cycles of lengths m and m - 1."""
    images = tuple((a + 1,) for a in range(m - 1)) + ((0, 1),)
    return Substitution(tokens(m), images)


@st.composite
def short_image_substitutions(draw, max_letters):
    """Images of length 1-3, so many draws are not primitive or not of constant length."""
    m = draw(st.integers(1, max_letters))
    images = draw(st.lists(
        st.lists(st.integers(0, m - 1), min_size=1, max_size=3).map(tuple), min_size=m, max_size=m,
    ))
    return Substitution(tokens(m), tuple(images))


@given(short_image_substitutions(max_letters=16))
@settings(max_examples=200, deadline=None)
@example(wielandt(16))
@example(wielandt(5))
@example(parse_substitution("0 -> 0 1\n1 -> 1 1\n"))
def test_is_primitive_matches_numpy_reference(z):
    result = is_primitive(z)
    assert (result.primitive, result.witness_n) == numpy_is_primitive(z)


def test_is_primitive_wielandt_witness():
    assert is_primitive(wielandt(16)).witness_n == 15**2 + 1


@given(short_image_substitutions(max_letters=6), st.integers(1, 300))
@settings(max_examples=150, deadline=None)
@example(parse_substitution("0 -> 1\n1 -> 0\n2 -> 0 2\n"), 7)  # z^2(0) = 0: constant
@example(parse_substitution("0 -> 0\n1 -> 0 1\n"), 5)  # z(0) = 0: constant
@example(parse_substitution("0 -> 0 1 1\n1 -> 0\n"), 40)  # not constant length
def test_fixed_point_prefix_matches_numpy_reference(z, n):
    letter, power = seed_letter(z)
    u = fixed_point_prefix(z, letter, power, n)
    expected = numpy_fixed_point_prefix(z, letter, power, n)
    assert u.dtype == expected.dtype == np.min_scalar_type(z.size - 1)
    assert np.array_equal(u, expected)


@pytest.mark.parametrize("m", [255, 256, 257, 300])
def test_fixed_point_prefix_wide_alphabets(m):
    # letters past 255 take two bytes
    z = Substitution(tokens(m), tuple((a, (a * 7 + 1) % m, m - 1 - a) for a in range(m)))
    letter, power = seed_letter(z)
    u = fixed_point_prefix(z, letter, power, 5000)
    expected = numpy_fixed_point_prefix(z, letter, power, 5000)
    assert u.dtype == expected.dtype == np.min_scalar_type(m - 1)
    assert np.array_equal(u, expected)
