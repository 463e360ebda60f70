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

`spectrum_difference_is_trivial` compares two characteristic polynomials
away from 0 and the roots of unity, where the substitution matrices of
zeta^d and eta share their spectrum.
"""

from __future__ import annotations

import heapq
import math
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
from .exactlin import poly_divmod, poly_gcd

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

    def phi_map(self) -> dict[str, tuple[str, ...]]:
        return dict(self.phi)


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
    """leftover = the two inputs with x-powers, cyclotomic factors, and the
    common remaining factor removed; trivial iff both leftovers are 1."""

    trivial: bool
    leftover: tuple[tuple[int, ...], tuple[int, ...]]


def _coeffs(p) -> list[int]:
    if hasattr(p, "coeffs"):
        return [int(c) for c in p.coeffs]
    return [int(c) for c in p]


def _euler_phi(d: int) -> int:
    out, rest, f = d, d, 2
    while f * f <= rest:
        if rest % f == 0:
            while rest % f == 0:
                rest //= f
            out -= out // f
        f += 1
    if rest > 1:
        out -= out // rest
    return out


def _cyclotomic(d: int, known: dict) -> tuple[int, ...]:
    """Phi_d: x^d - 1 divided exactly by Phi_e for every divisor e < d of d."""
    if d not in known:
        phi = (1,) + (0,) * (d - 1) + (-1,)
        for e in range(1, d):
            if d % e == 0:
                phi, rem = poly_divmod(phi, _cyclotomic(e, known))
                if rem:
                    raise RuntimeError(f"Phi_{e} must divide x^{d} - 1")
        known[d] = phi
    return known[d]


def _strip_trivial_roots(p: tuple[int, ...], cyclotomic_bound: int) -> tuple[int, ...]:
    # roots at 0: drop trailing zero coefficients
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    # roots of unity: divide out cyclotomic factors while they divide exactly;
    # phi(d) >= sqrt(d/2), so any cyclotomic factor of a degree-n polynomial
    # has d <= 2 n^2 and the bound exhausts all candidates.  Phi_d, of degree
    # phi(d), is built only when it is no longer than p.
    known: dict[int, tuple[int, ...]] = {}
    for d in range(1, cyclotomic_bound + 1):
        if _euler_phi(d) > len(p) - 1:
            continue
        phi = _cyclotomic(d, known)
        while len(p) >= len(phi):
            quo, rem = poly_divmod(p, phi)
            if rem:
                break
            p = quo
    return p


def spectrum_difference_is_trivial(p1, p2) -> SpectrumComparison:
    """Do two monic integer characteristic polynomials share their spectrum
    away from 0 and the roots of unity?

    Its use is to compare a substitution with its pure base: S_eta and
    S_{z^d}, for the z^d that eta intertwines with, must pass.  Strips all
    factors x and all cyclotomic factors Phi_d from both (exact integer
    division, d up to 2*max(deg)^2 which covers every cyclotomic polynomial
    that could divide), then cancels the common factor.  trivial is true
    iff nothing is left on either side.
    """
    c1, c2 = _coeffs(p1), _coeffs(p2)
    n = max(len(c1), len(c2)) - 1
    bound = 2 * n * n + 1
    s1 = _strip_trivial_roots(tuple(c1), bound)
    s2 = _strip_trivial_roots(tuple(c2), bound)
    g = poly_gcd(s1, s2)
    left1, r1 = poly_divmod(s1, g)
    left2, r2 = poly_divmod(s2, g)
    if r1 or r2:
        raise RuntimeError("gcd does not divide both stripped polynomials")
    return SpectrumComparison(
        trivial=(left1 == (1,) and left2 == (1,)),
        leftover=(left1, left2),
    )
