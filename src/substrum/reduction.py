"""Height and pure base of constant-length substitutions.

The one-sided fixed point U of a primitive aperiodic length-q substitution
can carry a hidden rotation factor: with g0 = gcd{k >= 1 : u_k = u_0}, the
height h is the largest divisor of g0 coprime to q.  When h > 1 the system
splits over a cyclic rotation, and the spectral analysis should be run on
the *pure base*: the substitution eta induced on the alphabet of h-blocks
of U that start at positions h*k.

U is the fixed point of zeta^p at a, where (a, p) = `seed_letter(zeta)`,
and U_j = zeta^j(U), j mod p, satisfy U_{j+1} = zeta(U_j).  Everything
here is read off that self-similarity by a finite closure instead of a
scan of U: g0 by one gcd per letter over "U_{j+1} at q*r + i holds
zeta(b)_i for the b at r in U_j", and the aligned h-blocks by closing
U[0:h] under "cut an image into blocks of length h".

Each letter occurs in U at one residue mod h only (Dekking), and so in
every U_j, which lies in the same minimal subshift.  So the aligned
blocks of U_j are the length-h words of the language that start in U_j's
phase, the residue class of U_j[0]: U_j of one phase share them, and
different phases share none.  Cutting zeta(B) into q blocks takes the
aligned blocks of U_j to those of U_{j+1}, so the closure of U[0:h] under
it, the phase graph, holds those of every U_j, and each edge steps to the
next phase in the cycle of phases.  With breadth-first levels, d = gcd
over its edges B -> C of level(B) + 1 - level(C) is thus a multiple of
the number of phases, and d divides p, since the first blocks of the U_j
form a cycle of length p.  Closing U[0:h] under zeta^d then collects the
aligned blocks of U_0, U_d, U_2d, ...: exactly the aligned blocks of U.
eta maps each to the q^d blocks of zeta^d(B), so the blocking map phi
intertwines eta with zeta^d, phi(eta(i)) = zeta^d(phi(i)); d = 1 when
p = 1, and Dekking coincidence is invariant under powers.

`spectrum_difference_is_trivial` compares the spectral records of two
matrices away from 0 and the roots of unity, where the substitution
matrices of zeta^d and eta share their spectrum.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .core import (
    Substitution,
    _derived_alphabet,
    constant_length,
    is_primitive,
    power_substitution,
    seed_letter,
)
from .eigen import CharPoly, _power
from .exactlin import poly_divmod, poly_mul

__all__ = [
    "HeightInfo",
    "PureBase",
    "SpectrumComparison",
    "compute_height",
    "pure_base",
    "spectrum_difference_is_trivial",
]


@dataclass(frozen=True)
class HeightInfo:
    """g0 = gcd of return positions of the first letter; h = its largest
    divisor coprime to q."""

    g0: int
    h: int


def _require_primitive(z: Substitution) -> int:
    q = constant_length(z)
    if q is None:
        raise ValueError("substitution must have constant length")
    if not is_primitive(z).primitive:
        raise ValueError("substitution must be primitive")
    return q


def _prefix(z: Substitution, letter: int, power: int, n: int) -> tuple[int, ...]:
    """The first n symbols of U, the fixed point of z^power at letter.

    The first n symbols of z(x) depend only on those of x, so each step
    keeps n symbols and z^power is never built.
    """
    u = (letter,)
    while len(u) < n:
        for _ in range(power):
            u = z.apply(u)[:n]
    return u


def compute_height(z: Substitution) -> HeightInfo:
    """Height of the fixed-point system of a primitive constant-length substitution.

    g0 is the gcd of the positions k >= 1 with u_k = u_0, decided exactly
    from z^p(U) = U by `_compute_height` without building any prefix of U;
    h is the largest divisor of g0 coprime to q.
    """
    return _compute_height(z, _require_primitive(z))


def _compute_height(z: Substitution, q: int) -> HeightInfo:
    """`compute_height` of a primitive substitution of constant length q.

    With (a, p) = `seed_letter(z)`, U_j = z^j(U) for j mod p satisfy
    U_{j+1} = z(U_j).  With q >= 2, a position n >= 1 of c in U_{j+1} is
    q*r + i for a position r < n of b in U_j with z(b)_i = c.  For each
    (j, c) seen, keep one position first[j, c] and the gcd g[j, c] of the
    offsets from it of the other positions found so far; each update adds
    only differences of real positions.  At the fixpoint, induction on n
    (on j at n = 0, where U_{j+1} starts with z(U_j[0])[0]) puts every
    position at first mod g, so g is the exact gcd and g0 = g[0, a].  Each
    g only moves down in the divisor order, so the worklist empties.  With
    q = 1 the only primitive input is a -> a, whose fixed point returns at
    every k.

    No input pins the q*g[s] that a newly seen pair t takes from its source
    s: were g[t] = 0 there, each pair would be seen with g = 0, so s, when
    processed with g[s] != 0, was pushed again as g[s] changed, and that
    later pass gives t q*g[s] for a g[s] dividing the earlier one.
    """
    letter, power = seed_letter(z)
    first, g = {(0, letter): 0}, {(0, letter): 0}
    pending = [(0, letter)]
    while pending:
        j, b = s = pending.pop()
        for i, c in enumerate(z.images[b]):
            t = ((j + 1) % power, c)
            n = q * first[s] + i
            d = math.gcd(g.get(t, 0), n - first.setdefault(t, n), q * g[s])
            if t not in g or d != g[t]:
                g[t] = d
                pending.append(t)
    g0 = g[0, letter] if q > 1 else 1

    h = g0
    while (d := math.gcd(h, q)) > 1:
        h //= d
    return HeightInfo(g0=g0, h=h)


def _closure(first, pieces) -> tuple[list, tuple[tuple[int, ...], ...]]:
    """Breadth-first closure of {first} under item -> pieces(item): the items
    in order of discovery, and each item's pieces as indices into them."""
    items = [first]
    index = {first: 0}
    rows = []
    for item in items:  # grows while it is walked
        row = []
        for piece in pieces(item):
            if piece not in index:
                index[piece] = len(items)
                items.append(piece)
            row.append(index[piece])
        rows.append(tuple(row))
    return items, tuple(rows)


@dataclass(frozen=True)
class PureBase:
    """Pure base eta on the alphabet of h-blocks, with the blocking map phi.

    phi is stored as (block_token, block_word) pairs in eta's alphabet
    order, which is the blocks' order of first appearance in U; block_word
    is a tuple of original letter tokens of length h.  eta intertwines with
    z^d for the phase period d of the module docstring, phi(eta(i)) =
    z^d(phi(i)), so its images have length q^d.  For height 1 this is the
    trivial reduction: eta = z, phi = identity.
    """

    eta: Substitution
    phi: tuple[tuple[str, tuple[str, ...]], ...]
    height: int


def _block_token(tokens: Sequence[str]) -> str:
    """An h-block's name from its letter tokens (see _derived_alphabet when two names coincide)."""
    if all(len(t) == 1 for t in tokens):
        return "".join(tokens)
    return "-".join(tokens)


def _cut(w: Substitution, h: int):
    """B -> w(B) cut into blocks of length h."""
    def cut(B):
        img = w.apply(B)
        return [img[i : i + h] for i in range(0, len(img), h)]
    return cut


def _phase_period(z: Substitution, u: tuple[int, ...]) -> int:
    """d = gcd over the edges B -> C of the phase graph of level(B) + 1 - level(C).

    `_closure` discovers breadth-first, so the first row that names a block
    is its parent's, and every row names only blocks already levelled.
    """
    _, rows = _closure(u, _cut(z, len(u)))
    level = [0] + [None] * (len(rows) - 1)
    d = 0
    for i, row in enumerate(rows):
        for j in row:
            if level[j] is None:
                level[j] = level[i] + 1
            d = math.gcd(d, level[i] + 1 - level[j])
    return d


def _first_appearance(images: tuple[tuple[int, ...], ...], phases: int) -> dict[int, int]:
    """Each letter's rank in order of first appearance in the fixed point at
    0 of the phases-th power of the substitution with these images.

    Let beta_k be that fixed point after k more steps, k mod phases, so
    beta_0 is the fixed point.  Position Q*n + i of beta_(k+1) holds
    images[c][i] for the letter c at n in beta_k, with Q the image length.
    That never moves a position down, so Dijkstra's order settles each
    (k, letter) at its first position without spelling any beta_k out.
    """
    Q = len(images[0])
    first, heap = {}, [(0, 0, 0)]
    while heap:
        n, k, c = heapq.heappop(heap)
        if (k, c) not in first:
            first[k, c] = n
            for i, x in enumerate(images[c]):
                heapq.heappush(heap, (Q * n + i, (k + 1) % phases, x))
    order = sorted((n, c) for (k, c), n in first.items() if k == 0)
    if len(order) < len(images):
        raise RuntimeError("the pure base has a block that its fixed point never shows")
    return {c: rank for rank, (_, c) in enumerate(order)}


def pure_base(z: Substitution) -> PureBase:
    """Dekking's pure base: the induced substitution on h-blocks of U.

    With the phase period d of the module docstring, the closure of
    {U[0:h]} under "cut z^d(B) into q^d blocks of length h" is exactly the
    set of aligned blocks of U, and eta maps each block letter to those
    q^d blocks; phi(eta(i)) = z^d(phi(i)) is checked on every letter.  The
    letters are named in order of first appearance in U, the fixed point of
    eta^(p/d) at U[0:h], by first positions found without spelling U out.
    """
    return _pure_base(z, _compute_height(z, _require_primitive(z)).h)


def _pure_base(z: Substitution, h: int) -> PureBase:
    """`pure_base` of a primitive constant-length substitution of height h."""
    tok = z.alphabet.token
    if h == 1:
        phi = tuple((tok(a), (tok(a),)) for a in range(z.size))
        return PureBase(eta=z, phi=phi, height=1)

    letter, power = seed_letter(z)
    u = _prefix(z, letter, power, h)
    d = _phase_period(z, u)
    w = power_substitution(z, d)
    blocks, images = _closure(u, _cut(w, h))
    rank = _first_appearance(images, power // d)
    blocks = [blocks[b] for b in rank]
    images = tuple(tuple(rank[c] for c in images[b]) for b in rank)
    eta = Substitution(_derived_alphabet(_block_token([tok(a) for a in B]) for B in blocks), images)
    tokens = eta.alphabet.letters

    for i, B in enumerate(blocks):
        if tuple(x for j in eta.images[i] for x in blocks[j]) != w.apply(B):
            raise RuntimeError(f"blocking map does not intertwine eta and z^{d} at block {tokens[i]}")

    phi = tuple((tokens[i], tuple(tok(a) for a in B)) for i, B in enumerate(blocks))
    return PureBase(eta=eta, phi=phi, height=h)


# ---------------------------------------------------------------------------
# Spectrum comparison modulo 0 and roots of unity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumComparison:
    """Two spectra compared away from 0 and the roots of unity.

    Each side's leftover is the product of its irreducible factors, counted
    with multiplicity, that are neither x nor cyclotomic and that the other
    side does not have with at least that multiplicity (a factor is
    cyclotomic iff x has small finite order modulo it, see
    `spectrum_difference_is_trivial`); trivial iff both leftovers are 1.
    """

    trivial: bool
    leftover: tuple[tuple[int, ...], tuple[int, ...]]


def _is_cyclotomic(fac: tuple[int, ...]) -> bool:
    """Whether x has order at most 2 deg^2 modulo the monic irreducible fac."""
    power = (1,)
    for _ in range(2 * (len(fac) - 1) ** 2):
        power = poly_divmod(power + (0,), fac)[1]
        if power == (1,):
            return True
    return False


def spectrum_difference_is_trivial(p1: CharPoly, p2: CharPoly) -> SpectrumComparison:
    """Do two spectral records share their spectrum away from 0 and the
    roots of unity?

    Its use is to compare a substitution with its pure base: S_eta and
    S_{z^d}, for the z^d that eta intertwines with, must pass.  Each
    record's `factors` lose x and every cyclotomic factor, and the rest are
    compared factor by factor with multiplicity; trivial is true iff every
    factor is matched.  A monic irreducible F other than x is cyclotomic iff
    x has finite order k modulo F: then F divides x^k - 1 and its roots
    have order exactly k, so F = Phi_k.  As deg F = phi(k) >= sqrt(k/2),
    k <= 2 deg(F)^2, and `_is_cyclotomic` tries no more powers of x.
    """
    sides = [
        Counter({fac: mult for fac, mult in p.factors if fac != (1, 0) and not _is_cyclotomic(fac)})
        for p in (p1, p2)
    ]
    leftover = []
    for mine, other in (sides, sides[::-1]):
        left = (1,)
        for fac, mult in (mine - other).items():
            left = poly_mul(left, _power(fac, mult))
        leftover.append(left)
    return SpectrumComparison(
        trivial=leftover == [(1,), (1,)],
        leftover=tuple(leftover),
    )
