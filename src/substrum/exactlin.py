"""Exact integer/rational linear algebra helpers.

Thin bridges over sympy for the exact computations the spectral analysis
needs: integer characteristic polynomials, irreducible factorization over Z,
rational nullspaces, integer polynomials evaluated at integer matrices, and rational
interval enclosures of square roots.  All results are exact Python ints /
fractions.Fraction; sympy types never leak out of this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Sequence

import sympy
from sympy import Poly, Rational, Symbol

from .core import IntMatrix

__all__ = [
    "char_poly_coeffs",
    "factor_integer_poly",
    "poly_mul",
    "poly_at_int_matrix",
    "rational_nullspace",
    "rational_matmul",
    "sqrt_interval",
]

_x = Symbol("x")


def _to_sympy_matrix(M: IntMatrix) -> sympy.Matrix:
    return sympy.Matrix(M.dim, M.dim, lambda r, c: sympy.Integer(M.entries[r][c]))


def char_poly_coeffs(M: IntMatrix) -> tuple[int, ...]:
    """Monic integer characteristic polynomial det(xI - M), leading coefficient first.

    Delegates to sympy's exact integer implementation (division-free over Z),
    so coefficients are exact for any dimension.
    """
    p = _to_sympy_matrix(M).charpoly(_x)
    coeffs = [int(c) for c in p.all_coeffs()]
    if coeffs[0] != 1 or len(coeffs) != M.dim + 1:
        raise RuntimeError(f"det(xI - M) of a {M.dim}x{M.dim} matrix must be monic of degree {M.dim}")
    return tuple(coeffs)


def factor_integer_poly(coeffs: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """Irreducible factorization over Z of a monic integer polynomial.

    Returns [(factor_coeffs_leading_first, multiplicity), ...] with monic
    integer factors, sorted deterministically (by degree, then coefficients).
    """
    if coeffs[0] != 1:
        raise ValueError(f"polynomial must be monic, got leading coefficient {coeffs[0]}")
    p = Poly(list(coeffs), _x, domain="ZZ")
    content, factors = p.factor_list()
    if content != 1:
        raise RuntimeError(f"monic polynomial has unit content, got {content}")
    out = []
    for f, mult in factors:
        fc = [int(c) for c in f.all_coeffs()]
        if fc[0] != 1:
            raise RuntimeError(f"factors of a monic integer polynomial are monic, got {fc}")
        out.append((tuple(fc), int(mult)))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out


def poly_mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Product of two integer polynomials (leading coefficient first)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def poly_at_int_matrix(coeffs: Sequence[int], M: IntMatrix) -> IntMatrix:
    """Evaluate an integer polynomial (leading coefficient first) at an integer matrix.

    Horner scheme in exact integer arithmetic.
    """
    n = M.dim
    acc = IntMatrix(tuple(tuple(coeffs[0] if r == c else 0 for c in range(n)) for r in range(n)))
    for coeff in coeffs[1:]:
        acc = IntMatrix(
            tuple(
                tuple(x + coeff if r == c else x for c, x in enumerate(row))
                for r, row in enumerate(acc.matmul(M).entries)
            )
        )
    return acc


def rational_matmul(A, B):
    """Exact product of two rational matrices (nested Fraction sequences)."""
    Bt = list(zip(*B))
    return tuple(
        tuple(sum(Fraction(a) * Fraction(b) for a, b in zip(row, col)) for col in Bt)
        for row in A
    )


def _to_fraction_matrix_sympy(rows) -> sympy.Matrix:
    n = len(rows)
    m = len(rows[0])
    return sympy.Matrix(
        n, m, lambda r, c: Rational(Fraction(rows[r][c]).numerator, Fraction(rows[r][c]).denominator)
    )


def rational_nullspace(rows) -> list[tuple[Fraction, ...]]:
    """Exact basis of the (right) nullspace of a rational matrix."""
    M = _to_fraction_matrix_sympy(rows)
    basis = M.nullspace()
    out = []
    for v in basis:
        out.append(tuple(Fraction(int(e.p), int(e.q)) for e in v))
    return out


def sqrt_interval(value: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Rational interval [lo, hi] containing sqrt(value), width <= 2^-bits.

    value must be >= 0.  Uses integer square roots of the scaled numerator,
    so the bounds are rigorous.
    """
    value = Fraction(value)
    if value < 0:
        raise ValueError("sqrt of negative rational")
    if value == 0:
        return Fraction(0), Fraction(0)
    scale = 1 << bits
    t = (value.numerator * scale * scale) // value.denominator
    s = isqrt(t)
    # s^2 <= t <= value*scale^2 < t+1 <= (s+1)^2, so sqrt(value)*scale is in [s, s+1)
    return Fraction(s, scale), Fraction(s + 1, scale)
