"""Shared fixtures."""

import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

import substrum
from substrum.eigen import char_poly
from substrum.exactlin import char_poly_coeffs, factor_integer_poly, poly_mul


@pytest.fixture(scope="session")
def child_env():
    """Environment for test subprocesses.

    PYTHONPATH starts with the absolute directory that holds the substrum
    package this session imported, followed by any existing entries, so a
    child finds the same package whatever its cwd and wherever pytest was
    started (a relative ``PYTHONPATH=src`` resolves only from the repo root).
    """
    src = str(Path(substrum.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, rest]) if rest else src)


def _count_calls(functions, run):
    """{name: number of calls} of the given functions while run() executes."""
    counted = {fn.__code__: fn.__name__ for fn in functions}
    calls = {fn.__name__: 0 for fn in functions}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counted:
            calls[counted[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


@pytest.fixture
def count_calls():
    """count_calls(functions, run): {name: number of calls} of the given
    functions while run() executes."""
    return _count_calls


def _matmul(A, B):
    n = len(A)
    return [
        [sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _fraction_horner(coeffs, A):
    n = len(A)
    acc = [[coeffs[0] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for c in coeffs[1:]:
        acc = _matmul(acc, A)
        for i in range(n):
            acc[i][i] += c
    return acc


def reference_projectors(M):
    """(factor, multiplicity, P) per factor, from expression-level sympy.gcdex
    and a Horner scheme over Fractions, independently of the integer path."""
    x = sympy.Symbol("x")
    coeffs = char_poly_coeffs(M)
    char = sympy.Poly(list(coeffs), x, domain="QQ")
    Mt = [[Fraction(v) for v in row] for row in M.transpose().entries]
    out = []
    for fac, mult in factor_integer_poly(coeffs):
        G = sympy.Poly(list(fac), x, domain="QQ") ** mult
        H, rem = sympy.div(char, G)
        assert rem.is_zero
        _s, t, g = sympy.gcdex(G.as_expr(), H.as_expr(), x)
        assert sympy.simplify(g - 1) == 0
        e = (sympy.Poly(t, x, domain="QQ") * H) % char
        P = _fraction_horner([Fraction(int(c.p), int(c.q)) for c in e.all_coeffs()], Mt)
        out.append((fac, mult, P))
    return out


def _reference_j_pr_kappa(M, b):
    """(j, theta, modulus enclosure, pr_b, kappa) from the sympy-built
    projectors: j is the first position of the descending-modulus multiset
    whose factor's projector sees b, pr_b sums the projections of b onto the
    factors of that modulus class, and kappa counts how many times the
    product of those factors, at M^t, applies before pr_b vanishes."""
    b = [Fraction(v) for v in b]
    seen = {fac: [sum(a * v for a, v in zip(row, b)) for row in P] for fac, _mult, P in reference_projectors(M)}
    Mt = [[Fraction(v) for v in row] for row in M.transpose().entries]
    pos = 0
    for cls in char_poly(M).classes:
        hits = []
        for rec in cls:
            if any(seen[rec.factor]):
                hits.append((pos + 1, rec))
            pos += rec.multiplicity
        if not hits:
            continue
        j, rec = hits[0]
        class_factors = list(dict.fromkeys(r.factor for r in cls))
        pr_b = [sum(col) for col in zip(*(seen[fac] for fac in class_factors))]
        f_cls = (1,)
        for fac in class_factors:
            f_cls = poly_mul(f_cls, fac)
        A = _fraction_horner([Fraction(c) for c in f_cls], Mt)
        kappa, v = 0, pr_b
        while any(v):
            kappa += 1
            v = [sum(a * x for a, x in zip(row, v)) for row in A]
        return j, rec.value, rec.modulus_lo, rec.modulus_hi, tuple(pr_b), kappa
    raise AssertionError("no projector sees a nonzero b")


@pytest.fixture(scope="session")
def reference_j_pr_kappa():
    """reference_j_pr_kappa(M, b): the elimination data (j, theta, modulus
    enclosure, pr_b, kappa) of b, built from sympy's Bezout identities."""
    return _reference_j_pr_kappa
