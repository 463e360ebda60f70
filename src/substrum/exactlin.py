"""Exact integer and rational algebra.

Every exact computation of the spectral analysis lives here, in plain
Python ints and fractions.Fraction:

* characteristic polynomials of integer matrices, by Berkowitz's
  division-free algorithm;
* polynomials as tuples of coefficients, leading coefficient first (the
  zero polynomial is the empty tuple): products, division with remainder
  (exact over Z by a monic divisor), and monic gcds and Bezout identities
  from one integer pseudo-division: the extended gcd carries integer
  cofactors through a primitive pseudo-remainder sequence, so
  s·a + t·b = r holds in integers, with r an integer multiple of the gcd;
* irreducible factorization over Z: Yun's squarefree decomposition, then
  each squarefree part on its own: every integer root splits off a linear
  factor, found from a root modulo a small prime by Newton lifting past
  twice Fujiwara's root bound, in time that grows with the bound's bit
  length only.  Below degree 4 what is left is irreducible, since a
  reducible monic polynomial of degree <= 3 has a linear factor; from
  degree 4 it goes through Zassenhaus's algorithm (Berlekamp modulo the
  best of three small primes, Hensel lifting above twice the Mignotte
  bound, recombination by exact trial division);
* one rational row reduction behind nullspaces, ranks and solves;
* rational interval enclosures of square roots.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice
from math import gcd, isqrt
from typing import Sequence

from .core import IntMatrix

__all__ = [
    "char_poly_coeffs",
    "factor_integer_poly",
    "poly_mul",
    "poly_divmod",
    "poly_gcd",
    "poly_gcdex",
    "rational_nullspace",
    "rational_rank",
    "rational_solve",
    "sqrt_interval",
]

# good primes whose Berlekamp factorizations are compared; the one with the
# fewest factors keeps recombination short
_GOOD_PRIMES_TRIED = 3


def char_poly_coeffs(M: IntMatrix) -> tuple[int, ...]:
    """Monic integer characteristic polynomial det(xI - M), leading coefficient first.

    Berkowitz's algorithm: with A = M[k:, k:] split as [[a, R], [C, A1]],
    det(xI - A) is the product of the Toeplitz matrix of
    (1, -a, -RC, -R A1 C, ..., -R A1^(s-1) C) with the coefficients of
    det(xI - A1).  Integer additions and products only, so the result is
    exact for any dimension.
    """
    A = M.entries
    n = M.dim
    if n == 0:
        return (1,)
    poly = [1, -A[n - 1][n - 1]]
    for k in range(n - 2, -1, -1):
        R = A[k][k + 1 :]
        A1 = [row[k + 1 :] for row in A[k + 1 :]]
        v = [row[k] for row in A[k + 1 :]]
        t = [1, -A[k][k]]
        for i in range(n - k - 1):
            if i:
                v = [sum(a * x for a, x in zip(row, v)) for row in A1]
            t.append(-sum(r * x for r, x in zip(R, v)))
        poly = [
            sum(t[i - j] * poly[j] for j in range(max(0, i - len(t) + 1), min(i, len(poly) - 1) + 1))
            for i in range(len(poly) + 1)
        ]
    return tuple(poly)


# ---------------------------------------------------------------------------
# Polynomials over Z and Q, leading coefficient first
# ---------------------------------------------------------------------------


def _trim(a) -> tuple:
    """Drop leading zero coefficients; the zero polynomial is ()."""
    i = 0
    while i < len(a) and a[i] == 0:
        i += 1
    return tuple(a[i:])


def _add(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    k = len(a) - len(b)
    return _trim(tuple(a[:k]) + tuple(x + y for x, y in zip(a[k:], b)))


def _sub(a, b) -> tuple:
    return _add(a, tuple(-x for x in b))


def _derivative(a) -> tuple:
    n = len(a) - 1
    return _trim(tuple(c * (n - i) for i, c in enumerate(a[:-1])))


def poly_mul(a: Sequence, b: Sequence) -> tuple:
    """Product of two polynomials (leading coefficient first)."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(out)


def poly_divmod(a: Sequence, b: Sequence) -> tuple[tuple, tuple]:
    """(quotient, remainder) of a by a monic b, with deg remainder < deg b.

    A monic b divides without any division of coefficients, so integer
    inputs give integer outputs (see `_pseudo_divmod` for any other b).
    """
    b = _trim(b)
    if not b or b[0] != 1:
        raise ValueError(f"poly_divmod divides by monic polynomials only, got {b}")
    rem = list(_trim(a))
    nq = len(rem) - len(b) + 1
    quo = []
    for i in range(max(nq, 0)):
        c = rem[i]
        quo.append(c)
        if c:
            for j in range(1, len(b)):
                rem[i + j] -= c * b[j]
    return tuple(quo), _trim(rem[max(nq, 0) :])


def _pseudo_divmod(a, b) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Pseudo-division of integer polynomials: (c, quo, rem) with
    c·a = quo·b + rem in integers and deg rem < deg b, for
    c = lc(b)^(deg a - deg b + 1) (c = 1 when deg a < deg b).

    Over Q the k-th quotient coefficient of a by b has a denominator that
    divides lc(b)^(k+1), so scaling a by c makes every division by lc(b)
    exact.
    """
    lead = b[0]
    steps = max(len(a) - len(b) + 1, 0)
    c = lead**steps
    rem = [c * x for x in a]
    quo = []
    for i in range(steps):
        coef = rem[i] // lead
        quo.append(coef)
        for j in range(1, len(b)):
            rem[i + j] -= coef * b[j]
    return c, tuple(quo), _trim(rem[steps:])


def _primitive(a) -> tuple:
    g = gcd(*a)
    return tuple(x // g for x in a) if g > 1 else tuple(a)


def poly_gcd(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Monic gcd of two integer polynomials, at least one of them monic.

    Euclid's algorithm on primitive pseudo-remainders stays in the
    integers.  The gcd divides the monic input, so by Gauss's lemma it is a
    monic integer polynomial: the primitive part of the last nonzero
    remainder, up to sign.
    """
    a, b = _trim(a), _trim(b)
    if not ((a and a[0] == 1) or (b and b[0] == 1)):
        raise ValueError("poly_gcd needs a monic argument")
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[2])
    a = _primitive(a)
    if a[0] < 0:
        a = tuple(-x for x in a)
    if a[0] != 1:
        raise RuntimeError(f"gcd with a monic integer polynomial must be monic, got {a}")
    return a


def poly_gcdex(a: Sequence[int], b: Sequence[int]) -> tuple[tuple, tuple, tuple]:
    """Integer (s, t, r) with s·a + t·b = r, a nonzero constant multiple of gcd(a, b).

    Euclid's algorithm on pseudo-remainders, carrying the cofactors: each
    step replaces the pair (r0, r1) by (r1, c·r0 - quo·r1), with
    `_pseudo_divmod`'s c and quo, updates the cofactors of a and b the same
    way, and divides the new remainder and its cofactors by the gcd of all
    their coefficients.  r is the last nonzero remainder; when a or b is
    monic, gcd(a, b) is a monic integer polynomial and r = lc(r)·gcd(a, b).
    deg s < deg b - deg r and deg t < deg a - deg r when both inputs are
    nonconstant.
    """
    r0, r1 = _trim(a), _trim(b)
    if not (r0 or r1):
        raise ValueError("gcd of two zero polynomials")
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        c, quo, rem = _pseudo_divmod(r0, r1)
        s = _sub(tuple(c * x for x in s0), poly_mul(quo, s1))
        t = _sub(tuple(c * x for x in t0), poly_mul(quo, t1))
        g = gcd(*rem, *s, *t)
        r0, r1 = r1, tuple(x // g for x in rem)
        s0, s1 = s1, tuple(x // g for x in s)
        t0, t1 = t1, tuple(x // g for x in t)
    return s0, t0, r0


# ---------------------------------------------------------------------------
# Factorization over Z
# ---------------------------------------------------------------------------


def factor_integer_poly(coeffs: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """Irreducible factorization over Z of a monic integer polynomial.

    Returns [(factor_coeffs_leading_first, multiplicity), ...] with monic
    integer factors, sorted deterministically (by degree, then coefficients).
    Powers of x are split off first, Yun's algorithm splits the rest into
    squarefree parts, and `_factor_squarefree` factors each part.  The
    product of the factors is checked against the input exactly.
    """
    f = target = tuple(int(c) for c in coeffs)
    if f[0] != 1:
        raise ValueError(f"polynomial must be monic, got leading coefficient {f[0]}")
    out = []
    zeros = 0
    while zeros < len(f) - 1 and f[-1 - zeros] == 0:
        zeros += 1
    if zeros:
        out.append(((1, 0), zeros))
        f = f[: len(f) - zeros]
    for part, mult in _squarefree_parts(f):
        out.extend((fac, mult) for fac in _factor_squarefree(part))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    product = (1,)
    for fac, mult in out:
        for _ in range(mult):
            product = poly_mul(product, fac)
    if product != target:
        raise RuntimeError(f"factors {out} do not multiply back to {target}")
    return out


def _squarefree_parts(f: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """Yun's algorithm: [(a_i, i)] with f = prod a_i^i, each a_i monic, squarefree,
    nonconstant and pairwise coprime.  Every division is by a monic divisor of f,
    so everything stays in the integers."""
    if len(f) == 1:
        return []
    df = _derivative(f)
    a0 = poly_gcd(f, df)
    b = poly_divmod(f, a0)[0]
    c = poly_divmod(df, a0)[0]
    d = _sub(c, _derivative(b))
    parts = []
    i = 1
    while len(b) > 1:
        a = poly_gcd(b, d)
        b = poly_divmod(b, a)[0]
        c = poly_divmod(d, a)[0]
        d = _sub(c, _derivative(b))
        if len(a) > 1:
            parts.append((a, i))
        i += 1
    return parts


def _factor_squarefree(f: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Monic irreducible factors over Z of a monic squarefree f with f(0) != 0.

    Every linear factor x - r is split off first.  Modulo the first prime p
    that keeps f squarefree, each root of f is simple, so Newton's iteration
    lifts it to a unique root modulo p^(2^j); once that modulus exceeds
    twice `_root_bound`, the root's symmetric residue is the only integer
    root it can come from, and an exact division decides.  What is left has
    no linear factor over Z, so below degree 4 it is irreducible: a
    reducible monic polynomial of degree 2 or 3 has a monic linear factor
    over Z, by Gauss's lemma.
    """
    if len(f) == 2:
        return [f]
    found = []
    rest = f
    p = next(_good_primes(f))
    df = _derivative(f)
    bound = _root_bound(f)
    for r in range(p):
        if len(rest) == 2:
            break
        if _horner(f, r) % p:
            continue
        m = p
        while m <= 2 * bound:
            m *= m
            r = (r - _horner(f, r) * pow(_horner(df, r), -1, m)) % m
        root = r - m if 2 * r > m else r
        quo, rem = poly_divmod(rest, (1, -root))
        if not rem:
            found.append((1, -root))
            rest = quo
    return found + ([rest] if len(rest) <= 4 else _zassenhaus(rest))


def _horner(f, x: int) -> int:
    """f(x) in integers."""
    acc = 0
    for c in f:
        acc = acc * x + c
    return acc


def _root_bound(f: tuple[int, ...]) -> int:
    """Fujiwara's bound 2·max_k |a_k|^(1/k) on the moduli of the roots of a
    monic f = x^n + a_1 x^(n-1) + ... + a_n, with each |a_k|^(1/k) replaced
    by the power of two 2^ceil(b/k) above it, b the bit length of a_k."""
    return 2 * max(1 << -(-abs(a).bit_length() // k) for k, a in enumerate(f[1:], 1))


def _good_primes(f: tuple[int, ...]):
    """The primes, in increasing order, modulo which the monic f stays squarefree."""
    p = 1
    while True:
        p = _next_prime(p)
        if len(_gcd_mod(_mod_trim(f, p), _mod_trim(_derivative(f), p), p)) == 1:
            yield p


def _zassenhaus(f: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Monic irreducible factors over Z of a monic squarefree f of degree >= 4
    with f(0) != 0."""
    n = len(f) - 1
    best = None
    for p in islice(_good_primes(f), _GOOD_PRIMES_TRIED):
        factors = _berlekamp(_mod_trim(f, p), p)
        if len(factors) == 1:
            return [f]
        if best is None or len(factors) < len(best[1]):
            best = (p, factors)
    p, factors = best
    # every coefficient of a monic factor g of f satisfies |g_j| <= binom(deg g, j) ||f||_2
    # (Mignotte), so p^k > 2 * 2^n ||f||_2 recovers it from its symmetric residue
    bound = (isqrt(sum(c * c for c in f)) + 1) << (n + 1)
    modulus = p
    while modulus <= bound:
        modulus *= p
    return _recombine(f, _hensel_lift(f, factors, p, modulus), modulus)


def _recombine(f, lifted, modulus) -> list[tuple[int, ...]]:
    """True factors of f from its factors modulo p^k: products of subsets in
    increasing size, kept when they divide f exactly over Z."""
    found = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            cand = (1,)
            for i in subset:
                cand = _mod_trim(poly_mul(cand, lifted[i]), modulus)
            cand = tuple(c - modulus if 2 * c > modulus else c for c in cand)
            if cand[-1] == 0 or f[-1] % cand[-1]:
                continue  # cand(0) must divide f(0), which is nonzero
            quo, rem = poly_divmod(f, cand)
            if not rem:
                found.append(cand)
                f = quo
                lifted = [g for i, g in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    found.append(f)
    return found


def _next_prime(p: int) -> int:
    p += 1
    while any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        p += 1
    return p


def _mod_trim(a, m) -> tuple[int, ...]:
    return _trim(tuple(c % m for c in a))


def _divmod_mod(a, b, m) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Division with remainder modulo m, for b whose leading coefficient is a unit mod m."""
    inv = pow(b[0], -1, m)
    rem = [c % m for c in _trim(a)]
    nq = len(rem) - len(b) + 1
    quo = []
    for i in range(max(nq, 0)):
        c = rem[i] * inv % m
        quo.append(c)
        if c:
            for j in range(1, len(b)):
                rem[i + j] = (rem[i + j] - c * b[j]) % m
    return _trim(quo), _trim(rem[max(nq, 0) :])


def _gcd_mod(a, b, p) -> tuple[int, ...]:
    """Monic gcd over the field Z/p of two polynomials, not both zero."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    inv = pow(a[0], -1, p)
    return tuple(c * inv % p for c in a)


def _gcdex_mod(a, b, p) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(s, t) with s·a + t·b = 1 over Z/p for coprime a, b; deg s < deg b, deg t < deg a."""
    r0, r1 = a, b
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        quo, rem = _divmod_mod(r0, r1, p)
        r0, r1 = r1, rem
        s0, s1 = s1, _mod_trim(_sub(s0, poly_mul(quo, s1)), p)
        t0, t1 = t1, _mod_trim(_sub(t0, poly_mul(quo, t1)), p)
    if len(r0) != 1:
        raise RuntimeError("Hensel lifting needs coprime factors modulo p")
    inv = pow(r0[0], -1, p)
    return tuple(c * inv % p for c in s0), tuple(c * inv % p for c in t0)


def _berlekamp(f, p) -> list[tuple[int, ...]]:
    """Monic irreducible factors of a monic squarefree f over Z/p.

    The polynomials g of degree < n with g^p = g mod f form a subalgebra of
    dimension r, the number of irreducible factors; its elements are the
    nullspace of Q - I, where row i of Q is x^(p i) mod f.  Each factor u is
    the product of the gcd(u, g - s) over s in Z/p, and the splittings by a
    basis of the subalgebra separate all r factors.
    """
    n = len(f) - 1
    xp = _divmod_mod((1,) + (0,) * p, f, p)[1]
    rows = []
    power = (1,)
    for _ in range(n):
        rows.append([0] * (n - len(power)) + list(power))  # leading first, length n
        power = _divmod_mod(poly_mul(power, xp), f, p)[1]
    # with g leading first, g^p = sum_j g[j] rows[n-1-j] mod f (Frobenius is
    # linear), so g^p = g is a linear system in the coefficients of g
    system = [
        [rows[n - 1 - j][i] - (1 if i == j else 0) for j in range(n)] for i in range(n)
    ]
    basis = _nullspace_mod(system, p)
    factors = [f]
    for g in basis:
        if len(factors) == len(basis):
            break
        g = _trim(g)
        if len(g) <= 1:
            continue
        split = []
        for u in factors:
            gu = _divmod_mod(g, u, p)[1]
            if len(gu) <= 1:
                split.append(u)  # g is constant modulo u, so it does not split u
                continue
            for s in range(p):
                piece = _gcd_mod(u, _mod_trim(_sub(gu, (s,)), p), p)
                if len(piece) > 1:
                    split.append(piece)
        factors = split
    if len(factors) != len(basis):
        raise RuntimeError(f"Berlekamp found {len(factors)} of {len(basis)} factors modulo {p}")
    return factors


def _nullspace_mod(rows, p) -> list[list[int]]:
    """Basis of the nullspace over Z/p, one vector per free column (set to 1)."""
    A = [[x % p for x in row] for row in rows]
    ncols = len(A[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(A)) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][c], -1, p)
        A[r] = [x * inv % p for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                k = A[i][c]
                A[i] = [(x - k * y) % p for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[free] = 1
        for row, col in enumerate(pivots):
            v[col] = -A[row][free] % p
        basis.append(v)
    return basis


def _hensel_lift(f, factors, p, modulus) -> list[tuple[int, ...]]:
    """Lift f = prod factors (monic, pairwise coprime mod p) to a factorization
    modulo `modulus`, a power of p: each factor in turn is split off its
    cofactor by two-factor lifting."""
    lifted = []
    rest = _mod_trim(f, modulus)
    for i, g in enumerate(factors[:-1]):
        h = (1,)
        for other in factors[i + 1 :]:
            h = _mod_trim(poly_mul(h, other), p)
        g, rest = _lift_pair(rest, g, h, p, modulus)
        lifted.append(g)
    lifted.append(rest)
    return lifted


def _lift_pair(f, g, h, p, modulus) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Quadratic Hensel lifting of f = g·h mod p (all monic, g and h coprime
    mod p) to f = G·H mod `modulus` (von zur Gathen and Gerhard, Alg. 15.10)."""
    s, t = _gcdex_mod(g, h, p)
    m = p
    while m < modulus:
        m = min(m * m, modulus)
        e = _mod_trim(_sub(f, poly_mul(g, h)), m)
        q, r = _divmod_mod(poly_mul(s, e), h, m)
        g = _mod_trim(_add(_add(g, poly_mul(t, e)), poly_mul(q, g)), m)
        h = _mod_trim(_add(h, r), m)
        if m == modulus:
            break  # the Bezout pair is lifted only for a further step
        b = _mod_trim(_sub(_add(poly_mul(s, g), poly_mul(t, h)), (1,)), m)
        c, d = _divmod_mod(poly_mul(s, b), h, m)
        s = _mod_trim(_sub(s, d), m)
        t = _mod_trim(_sub(_sub(t, poly_mul(t, b)), poly_mul(c, g)), m)
    return g, h


# ---------------------------------------------------------------------------
# Rational linear algebra
# ---------------------------------------------------------------------------


def _rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q, and its pivot columns."""
    A = [[Fraction(x) for x in row] for row in rows]
    ncols = len(A[0]) if A else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(A):
            break
        piv = next((i for i in range(r, len(A)) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        lead = A[r][c]
        if lead != 1:
            A[r] = [x / lead for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c] != 0:
                k = A[i][c]
                A[i] = [x - k * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    return A, pivots


def rational_nullspace(rows) -> list[tuple[Fraction, ...]]:
    """Exact basis of the (right) nullspace of a rational matrix.

    One vector per free column of the reduced row echelon form, with that
    column set to 1 and the other free columns to 0.
    """
    R, pivots = _rref(rows)
    ncols = len(R[0])
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, col in enumerate(pivots):
            v[col] = -R[row][free]
        basis.append(tuple(v))
    return basis


def rational_rank(rows) -> int:
    """Rank of a rational matrix."""
    return len(_rref(rows)[1])


def rational_solve(A, b) -> tuple[Fraction, ...]:
    """The solution x of A x = b for a nonsingular square rational matrix A."""
    n = len(A)
    R, pivots = _rref([list(row) + [rhs] for row, rhs in zip(A, b)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(row[n] for row in R)


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
