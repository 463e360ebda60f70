"""Independent checks of substrum's outputs.  Nothing here imports substrum.

Every check recomputes its answer by a different method from the one the
package uses:

* primitivity by boolean matrix powers;
* the height from return times on an independently built fixed point;
* Dekking coincidence (height one) by the pair-merging test on the column
  maps: a coincidence exists iff every pair of letters can be merged by
  some word of column maps, i.e. the column automaton is synchronizing;
* eigenvalue facts from 300-digit roots (mpmath.polyroots on each
  irreducible factor of a Faddeev-LeVerrier characteristic polynomial);
* lag counts by numpy bincount on the independently built prefix.

Inputs are substitutions given as a tuple of images over letters 0..m-1.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import sympy

DIGITS = 300
_EPS = mpmath.mpf(10) ** -200
_x = sympy.Symbol("x")


def incidence(images, m: int) -> np.ndarray:
    """Substitution matrix S[b, a] = number of b in the image of a."""
    S = np.zeros((m, m), dtype=np.int64)
    for a, img in enumerate(images):
        for b in img:
            S[b, a] += 1
    return S


def is_primitive(images) -> bool:
    """Some boolean power of S is all-positive (Wielandt: by (m-1)^2 + 1)."""
    m = len(images)
    B = (incidence(images, m) > 0).astype(np.int64)
    P = B.copy()
    for _ in range((m - 1) ** 2 + 1):
        if P.all():
            return True
        P = ((P @ B) > 0).astype(np.int64)
    return bool(P.all())


def parse_rules(text: str) -> tuple:
    """Images of a rules file, letters numbered by first left-hand side."""
    rules = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            lhs, rhs = line.split("->", 1)
            rules.append((lhs.strip(), rhs.split()))
    index = {lhs: i for i, (lhs, _) in enumerate(rules)}
    return tuple(tuple(index[t] for t in rhs) for _, rhs in rules)


@functools.cache
def char_poly(images) -> tuple[int, ...]:
    """det(xI - S), leading coefficient first (Faddeev-LeVerrier, exact)."""
    m = len(images)
    S = [[Fraction(int(v)) for v in row] for row in incidence(images, m).tolist()]
    coeffs = [Fraction(1)]
    M = [[Fraction(0)] * m for _ in range(m)]
    for k in range(1, m + 1):
        # M_k = S M_{k-1} + c_{k-1} I ;  c_k = -tr(S M_k) / k
        SM = [[sum(S[i][t] * M[t][j] for t in range(m)) for j in range(m)] for i in range(m)]
        M = [[SM[i][j] + (coeffs[-1] if i == j else 0) for j in range(m)] for i in range(m)]
        SMk = [[sum(S[i][t] * M[t][j] for t in range(m)) for j in range(m)] for i in range(m)]
        coeffs.append(-sum(SMk[i][i] for i in range(m)) / k)
    return tuple(int(c) for c in coeffs)


@functools.cache
def factors(coeffs: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """Irreducible factors over Z with multiplicities."""
    _, facs = sympy.factor_list(sympy.Poly(list(coeffs), _x))
    return [(tuple(int(c) for c in f.all_coeffs()), int(e)) for f, e in facs]


def max_factor_degree(images) -> int:
    return max(len(f) - 1 for f, _ in factors(char_poly(images)))


def squarefree(images) -> bool:
    """Is every root of the characteristic polynomial simple?"""
    return all(mult == 1 for _, mult in factors(char_poly(images)))


@functools.cache
def roots(coeffs: tuple[int, ...]) -> tuple:
    """All roots with multiplicity, to DIGITS significant digits."""
    out = []
    with mpmath.workdps(DIGITS):
        for f, mult in factors(coeffs):
            if len(f) == 2:
                rs = [mpmath.mpf(-f[1]) / f[0]]
            else:
                rs = mpmath.polyroots(list(f), maxsteps=500, extraprec=4 * DIGITS)
            out.extend(r for r in rs for _ in range(mult))
    return tuple(out)


def sqrt_q_facts(coeffs, q: int) -> tuple[bool, bool]:
    """(some |root|^2 = q, second-largest modulus below sqrt q)."""
    with mpmath.workdps(DIGITS):
        sq = sorted((abs(r) ** 2 for r in roots(coeffs)), reverse=True)
        present = any(abs(s - q) < _EPS for s in sq)
        # the Perron root is q itself; theta_2 < sqrt q iff every other root
        # has |root|^2 < q
        rest = list(sq)
        rest.pop(min(range(len(rest)), key=lambda i: abs(rest[i] - q * q)))
        small = all(s < q - _EPS for s in rest)
    return present, small


def enclosure_errors(quads, coeffs) -> list[str]:
    """Display enclosures {re, im, modulus_lo, modulus_hi} that miss their root.

    Each reported value is matched to the nearest unmatched 300-digit root.
    The report carries floats, so the bounds may be off by the rounding of
    the exact enclosure to double: allow 2^-50 relative.
    """
    with mpmath.workdps(DIGITS):
        pool = list(roots(coeffs))
        if len(pool) != len(quads):
            return [f"{len(quads)} eigenvalues reported, degree {len(pool)}"]
        errors = []
        for quad in quads:
            v = mpmath.mpc(quad["re"], quad["im"])
            i = min(range(len(pool)), key=lambda j: abs(pool[j] - v))
            r = pool.pop(i)
            mod = abs(r)
            slack = mod * 2.0**-50
            if abs(r - v) > 1e-6 * max(1, mod):
                errors.append(f"value {complex(v)} is not near a root")
            elif not (quad["modulus_lo"] <= mod + slack and quad["modulus_hi"] >= mod - slack):
                errors.append(
                    f"[{quad['modulus_lo']}, {quad['modulus_hi']}] misses |root| = {mpmath.nstr(mod, 20)}"
                )
        return errors


def seed_letter(images) -> tuple[int, int]:
    """Smallest letter a with z^p(a) starting with a, and the least such p."""
    first = [img[0] for img in images]
    for a in range(len(images)):
        x, p = first[a], 1
        while x != a and p <= len(images):
            x, p = first[x], p + 1
        if x == a:
            return a, p
    raise ValueError("no letter on a cycle of the first-letter map")


def fixed_point(images, n: int) -> np.ndarray:
    """First n symbols of the fixed point of z^p at the seed letter."""
    table = np.asarray(images, dtype=np.int64)
    q = table.shape[1]
    a, p = seed_letter(images)
    u = np.array([a], dtype=np.int64)
    while u.size < n:
        for _ in range(p):
            u = table[u[: -(-n // q)]].ravel()
    return u[:n]


def height(images, n: int = 1 << 16) -> int:
    """h: the gcd of return times to u_0, with the factors it shares with q removed."""
    q = len(images[0])
    u = fixed_point(images, n)
    g = int(np.gcd.reduce(np.nonzero(u[1:] == u[0])[0] + 1))
    while (d := math.gcd(g, q)) > 1:
        g //= d
    return g


def periodic(images, n: int = 1 << 16) -> bool:
    """Does the fixed-point prefix repeat with some period p <= n/16?"""
    u = fixed_point(images, n)
    head = u[:256]
    return any(
        np.array_equal(u[p : p + 256], head) and np.array_equal(u[p:], u[:-p])
        for p in range(1, n // 16)
    )


def synchronizing(images) -> bool:
    """Can every pair of letters be merged by a word of column maps?"""
    m, q = len(images), len(images[0])
    cols = [[images[a][i] for a in range(m)] for i in range(q)]
    merged = {(a, a) for a in range(m)}
    pending = {(a, b) for a in range(m) for b in range(a + 1, m)}
    grew = True
    while grew and pending:
        grew = False
        for a, b in list(pending):
            if any(tuple(sorted((c[a], c[b]))) in merged for c in cols):
                merged.add((a, b))
                pending.discard((a, b))
                grew = True
    return not pending


def verdict_errors(images, verdict: str, reasons) -> tuple[list[str], list[str]]:
    """Check a verdict against the oracle: (wrong claims, missed claims)."""
    q = len(images[0])
    wrong, missed = [], []
    if "PreconditionFailed(not-primitive)" in reasons:
        return ["called not primitive"] if is_primitive(images) else [], missed
    if "PreconditionFailed(periodic)" in reasons:
        if not periodic(images):
            wrong.append("called periodic, prefix is not")
        return wrong, missed
    if any(r.startswith("PreconditionFailed") for r in reasons):
        missed.append(f"refused: {','.join(reasons)}")
        return wrong, missed
    if periodic(images):
        wrong.append("periodic prefix, verdict given anyway")
    if height(images) == 1 and (verdict == "PurelyDiscrete") != (sync := synchronizing(images)):
        wrong.append(f"{verdict}, coincidence is {sync}")
    if verdict == "PurelyDiscrete":
        return wrong, missed
    present, small = sqrt_q_facts(char_poly(images), q)
    if "NumericallyAmbiguous" in reasons:
        missed.append("NumericallyAmbiguous")
    elif ("SqrtQPresent" in reasons) != present or ("NoSqrtQEigenvalue" in reasons) == present:
        wrong.append(f"{','.join(reasons)}, |root| = sqrt(q) is {present}")
    if "SecondEigenvalueSmall" in reasons and not small:
        wrong.append("SecondEigenvalueSmall, theta_2 >= sqrt(q)")
    if verdict == "Singular" and small and "SecondEigenvalueSmall" not in reasons:
        missed.append("theta_2 < sqrt(q) not certified")
    return wrong, missed


def ball_masses(images, f, L: int, max_lag: int) -> dict[int, float]:
    """Fejer ball masses at radii q^-n with q^n <= max_lag, from lag counts.

    N[k, a, b] = #{n < L : u[n] = a, u[n+k] = b} is counted per lag by
    bincount; sigma_f(k) = sum_ab f_a f_b N[k, b, a] / L.
    """
    m, q = len(images), len(images[0])
    u = fixed_point(images, L + max_lag)
    fvec = np.asarray([float(Fraction(x)) for x in f])
    F = np.outer(fvec, fvec)
    sigma = np.empty(max_lag)
    for k in range(max_lag):
        N = np.bincount(u[:L] * m + u[k : k + L], minlength=m * m).reshape(m, m)
        sigma[k] = float(np.sum(F * N.T)) / L
    out = {}
    n = 1
    while q**n <= max_lag:
        N = q**n
        w = 1.0 - np.arange(1, N) / N
        out[n] = float((sigma[0] + 2.0 * np.sum(w * sigma[1:N])) / N)
        n += 1
    return out
