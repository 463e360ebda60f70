"""Bi-substitution, ergodic classes of letter pairs, Dekking's coincidence
criterion, and bijectivity."""

import subprocess
import sys

import numpy as np
import sympy
from sympy import Poly, Symbol

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from substrum.coincidence import (
    bijectivity_profile,
    bisubstitution,
    coincidence_matrix,
    dekking_pure_discrete,
    ergodic_classes,
)
from substrum.core import constant_length, is_primitive, parse_substitution, power_substitution, substitution_matrix
from substrum.corpus import load
from substrum.eigen import char_poly
from substrum.reduction import compute_height, pure_base

_x = Symbol("x")


def q_multiplicity(z):
    """Multiplicity of the root q in char(C), exactly."""
    q = constant_length(z)
    C = coincidence_matrix(z)
    p = Poly(list(char_poly(C).coeffs), _x, domain="ZZ")
    mult = 0
    while p.eval(q) == 0:
        p = Poly(sympy.div(p, Poly([1, -q], _x, domain="ZZ"))[0], _x, domain="ZZ")
        mult += 1
    return mult


def test_bisubstitution_structure():
    z = load("thue_morse")
    zz = bisubstitution(z)
    assert zz.size == 4
    assert constant_length(zz) == 2
    # pair (0,1) maps coordinatewise: zeta(0)=01, zeta(1)=10 -> (0,1)(1,0)
    pa_tokens = zz.alphabet.letters
    i01 = pa_tokens.index("(0,1)")
    img = [pa_tokens[j] for j in zz.images[i01]]
    assert img == ["(0,1)", "(1,0)"]


def test_coincidence_matrix_column_sums():
    for name in ("thue_morse", "rudin_shapiro", "height_two"):
        z = load(name)
        C = coincidence_matrix(z)
        assert tuple(sum(col) for col in zip(*C.entries)) == tuple([constant_length(z)] * z.size**2)


EXPECTED_CLASSES = {
    # name -> (k, |T|)
    "thue_morse": (2, 0),
    "bijective_nonabelian": (2, 0),
    "small_second_eigenvalue": (2, 0),
    "rudin_shapiro": (2, 8),
    "modified_rudin_shapiro": (3, 0),
}


@pytest.mark.parametrize("name, expected", sorted(EXPECTED_CLASSES.items()))
def test_ergodic_class_counts(name, expected):
    cls = ergodic_classes(load(name))
    assert (cls.k, len(cls.transitive)) == expected
    # E_0 is the diagonal
    assert cls.classes[0] == tuple((a, a) for a in range(load(name).size))


@pytest.mark.parametrize("name", sorted(EXPECTED_CLASSES))
def test_q_multiplicity_in_coincidence_char_poly_equals_k(name):
    z = load(name)
    assert q_multiplicity(z) == ergodic_classes(z).k


def brute_terminal_classes(z):
    """Terminal components of the pair emission graph, from reachability sets.

    p is in a terminal component iff every pair it reaches reaches p back;
    that component is then the set of pairs p reaches.
    """
    zz = bisubstitution(z)
    reach = []
    for p in range(zz.size):
        seen, stack = {p}, [p]
        while stack:
            for x in zz.images[stack.pop()]:
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        reach.append(frozenset(seen))
    return {reach[p] for p in range(zz.size) if all(p in reach[x] for x in reach[p])}


@st.composite
def primitive_substitutions(draw):
    m = draw(st.integers(1, 6))
    q = draw(st.integers(2, 4))
    bijective = draw(st.booleans())  # bijective inputs have several classes
    if bijective:
        columns = [draw(st.permutations(range(m))) for _ in range(q)]
        images = [[columns[i][a] for i in range(q)] for a in range(m)]
    else:
        images = draw(st.lists(
            st.lists(st.integers(0, m - 1), min_size=q, max_size=q), min_size=m, max_size=m,
        ))
    return "".join(f"{a} -> {' '.join(map(str, img))}\n" for a, img in enumerate(images))


@settings(max_examples=100, deadline=None)
@given(primitive_substitutions())
def test_ergodic_classes_match_brute_force(rules):
    z = parse_substitution(rules)
    assume(is_primitive(z).primitive)
    cls = ergodic_classes(z)
    m = z.size
    terminal = brute_terminal_classes(z)
    assert cls.k == len(terminal)
    as_sets = [frozenset(a * m + b for a, b in c) for c in cls.classes]
    assert set(as_sets) == terminal
    # E_0 is the diagonal; the others follow in order of their smallest pair
    assert cls.classes[0] == tuple((a, a) for a in range(m))
    assert [min(c) for c in as_sets[1:]] == sorted(min(c) for c in as_sets[1:])
    assert all(c == tuple(sorted(c)) for c in cls.classes)
    in_classes = set().union(*as_sets)
    assert cls.transitive == tuple(divmod(p, m) for p in range(m * m) if p not in in_classes)


def numpy_stabilizing_power(C, class_indices):
    """Reference: clipped 0/1 powers of the coincidence matrix in numpy."""
    n = C.dim
    B = (np.array(C.entries) > 0).astype(np.uint8)
    P = B.copy()
    blocks = [np.ix_(cls, cls) for cls in class_indices]
    seen = set()
    for j in range(1, n * (n + 1) + 1):
        if all(P[blk].all() for blk in blocks):
            return j
        key = P.tobytes()
        if key in seen:
            return None
        seen.add(key)
        P = np.clip(P @ B, 0, 1)
    return None


@settings(max_examples=100, deadline=None)
@given(primitive_substitutions())
def test_stabilizing_power_matches_numpy_reference(rules):
    z = parse_substitution(rules)
    assume(is_primitive(z).primitive)
    cls = ergodic_classes(z)
    class_indices = [[a * z.size + b for a, b in c] for c in cls.classes]
    assert cls.stabilizing_power == numpy_stabilizing_power(coincidence_matrix(z), class_indices)
    if compute_height(z).h == 1:
        assert dekking_pure_discrete(z) == (cls.k == 1)


def test_import_does_not_load_scipy(child_env):
    out = subprocess.run(
        [sys.executable, "-c", "import sys, substrum; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_class_partition_invariant_under_powers_when_aperiodic_classes():
    # holds when every off-diagonal class is aperiodic as a graph — true for
    # these three
    for name in ("thue_morse", "bijective_nonabelian", "rudin_shapiro"):
        z = load(name)
        c1 = ergodic_classes(z)
        c2 = ergodic_classes(power_substitution(z, 2))
        assert c1.classes == c2.classes
        assert c1.transitive == c2.transitive


def test_modified_rudin_shapiro_class_splits_under_squaring():
    # the size-8 class of the modified Rudin-Shapiro pair graph is bipartite,
    # so it splits into two classes under z^2 and k goes 3 -> 4; the
    # q-multiplicity law tracks it at every power
    z = load("modified_rudin_shapiro")
    ks = []
    for j in (1, 2, 3):
        zj = power_substitution(z, j)
        cls = ergodic_classes(zj)
        ks.append(cls.k)
        assert q_multiplicity(zj) == cls.k
    assert ks == [3, 4, 3]


def test_stabilizing_power():
    # aperiodic classes reach positivity at a finite power...
    assert ergodic_classes(load("thue_morse")).stabilizing_power is not None
    assert ergodic_classes(load("bijective_nonabelian")).stabilizing_power is not None
    # ...but the bipartite modified-RS class never does; the search must
    # detect the cycle and give up quickly rather than grinding to the
    # worst-case bound
    import time

    t0 = time.perf_counter()
    assert ergodic_classes(load("modified_rudin_shapiro")).stabilizing_power is None
    assert time.perf_counter() - t0 < 5.0


def test_dekking_criterion():
    # no coincidence for bijective substitutions
    assert dekking_pure_discrete(load("thue_morse")) is False
    assert dekking_pure_discrete(load("bijective_nonabelian")) is False
    # the pure base of the height-two example has one
    eta = pure_base(load("height_two")).eta
    assert dekking_pure_discrete(eta) is True


def test_dekking_requires_height_one():
    with pytest.raises(ValueError, match="height"):
        dekking_pure_discrete(load("height_two"))


def test_bijectivity_profile():
    assert bijectivity_profile(load("thue_morse")) is True
    assert bijectivity_profile(load("bijective_nonabelian")) is True
    assert bijectivity_profile(load("modified_rudin_shapiro")) is True
    assert bijectivity_profile(load("rudin_shapiro")) is False
    assert bijectivity_profile(load("height_two")) is False


def test_bijective_implies_multiple_classes():
    for name in ("thue_morse", "bijective_nonabelian", "small_second_eigenvalue", "modified_rudin_shapiro"):
        z = load(name)
        if bijectivity_profile(z):
            assert ergodic_classes(z).k >= 2
