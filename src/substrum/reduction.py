"""Height, pure base, and return words of constant-length substitutions.

The one-sided fixed point U of a primitive aperiodic length-q substitution
can carry a hidden rotation factor: with g0 = gcd{k >= 1 : u_k = u_0}, the
height h is the largest divisor of g0 coprime to q.  When h > 1 the system
splits over a cyclic rotation, and the spectral analysis should be run on
the *pure base*: the substitution eta induced on the alphabet of h-blocks
of U that start at positions h*k.

U is the fixed point of w = zeta^p, where (a, p) = `seed_letter(zeta)`, so
U = w(U) with Q = q^p.  Everything here is read off that self-similarity
by a finite closure rather than by scanning prefixes of U: g0 by one gcd
per letter over "zeta^(j+1)(U) at q*r + i holds zeta(b)_i for the b at r
in zeta^j(U)", the aligned h-blocks as the closure of U[0:h] under "cut
w(B) into Q blocks", and the return words of U[0:h] as the closure of the
first return word under "cut w(v)u at the occurrences of u".  For p = 1,
eta has length q; for p > 1 it is the pure base of w, with images of
length q^p (Dekking coincidence is invariant under powers).  The blocking
map phi intertwines eta with w, phi(eta(i)) = w(phi(i)).

Return words of the prefix u = U[0:h] (the words between consecutive
occurrences of u) give another derived substitution theta, used here as a
cross-check: the substitution matrices of zeta, eta and theta all share
their spectrum away from 0 and the roots of unity, so
`spectrum_difference_is_trivial` strips x and cyclotomic factors from two
characteristic polynomials and compares what is left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import (
    Alphabet,
    Substitution,
    _derived_alphabet,
    _fixed_point_bytes,
    _pack,
    _unpack,
    constant_length,
    is_primitive,
    power_substitution,
    seed_letter,
)
from .exactlin import poly_divmod, poly_gcd

__all__ = [
    "HeightInfo",
    "PureBase",
    "ReturnWordSystem",
    "SpectrumComparison",
    "compute_height",
    "pure_base",
    "return_words",
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
    """The first n symbols of U, the fixed point of z^power at letter."""
    return _unpack(_fixed_point_bytes(z, letter, power, n), z.size)


def _occurrences(word: bytes, u: bytes, width: int) -> list[int]:
    """Symbol positions of all (possibly overlapping) occurrences of u in
    word, both packed with `width` bytes per symbol."""
    found = []
    i = word.find(u)
    while i >= 0:
        if i % width == 0:  # a match straddling two symbols is no occurrence
            found.append(i // width)
        i = word.find(u, i + 1)
    return found


def _first_return(z: Substitution, letter: int, power: int, u: tuple[int, ...]) -> int:
    """The first position k >= 1 where the prefix u of U occurs again.

    U is uniformly recurrent for primitive z, so the doubling scan ends;
    the prefix builder's symbol budget is the only cap.
    """
    packed = _pack(u, z.size)
    n = 64 * len(u)
    while True:
        occ = _occurrences(_fixed_point_bytes(z, letter, power, n), packed, len(packed) // len(u))
        if len(occ) >= 2:
            return occ[1]
        n *= 2


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
    order; block_word is a tuple of original letter tokens of length h.
    For height 1 this is the trivial reduction: eta = z, phi = identity.
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


def pure_base(z: Substitution) -> PureBase:
    """Dekking's pure base: the induced substitution on h-blocks of U.

    With w = z^p and Q = q^p as in the module docstring, the block at
    position h*k of U = w(U) expands to the Q aligned blocks at positions
    h*(Q*k + i), i < Q.  So the closure of {U[0:h]} under "cut w(B) into Q
    blocks of length h" is exactly the set of aligned blocks of U, and its
    breadth-first discovery order is their order of first appearance in U
    (block k >= 1 comes from block k // Q < k).  eta maps each block letter
    to those Q blocks; phi(eta(i)) = w(phi(i)) is checked on every letter.
    """
    return _pure_base(z, _compute_height(z, _require_primitive(z)).h)


def _pure_base(z: Substitution, h: int) -> PureBase:
    """`pure_base` of a primitive constant-length substitution of height h."""
    tok = z.alphabet.token
    if h == 1:
        phi = tuple((tok(a), (tok(a),)) for a in range(z.size))
        return PureBase(eta=z, phi=phi, height=1)

    letter, power = seed_letter(z)
    w = power_substitution(z, power)
    Q = constant_length(w)

    def cut(B):
        img = w.apply(B)
        return [img[i * h : (i + 1) * h] for i in range(Q)]

    blocks, images = _closure(_prefix(z, letter, power, h), cut)
    eta = Substitution(_derived_alphabet(_block_token([tok(a) for a in B]) for B in blocks), images)
    tokens = eta.alphabet.letters

    for i, B in enumerate(blocks):
        if tuple(x for j in eta.images[i] for x in blocks[j]) != w.apply(B):
            raise RuntimeError(f"blocking map does not intertwine eta and z^{power} at block {tokens[i]}")

    phi = tuple((tokens[i], tuple(tok(a) for a in B)) for i, B in enumerate(blocks))
    return PureBase(eta=eta, phi=phi, height=h)


@dataclass(frozen=True)
class ReturnWordSystem:
    """Return words of the prefix u = U[0:h] of U, with the derived substitution theta.

    words[i] is the return word named by theta's i-th letter (token "r<i>"),
    in order of first appearance in U.  Each return word v satisfies: u is a
    prefix of v*u, and u occurs in v*u exactly twice (at the ends).
    """

    u: tuple[int, ...]
    words: tuple[tuple[int, ...], ...]
    theta: Substitution


def return_words(z: Substitution) -> ReturnWordSystem:
    """Return words of the prefix u = U[0:h] of the fixed point U.

    u is the first h-block of U (the image of the first pure-base letter),
    the prefix the height reduction distinguishes.  With w = z^p as in the
    module docstring: if v is the return word at an occurrence i of u, then
    U = w(U) holds w(v)u at position Q*i, and the occurrences of u in that
    word are exactly the occurrences of u in U there, so cutting at them
    gives the return words of U at those occurrences, in order.  These
    windows tile U, so the closure of the first return word under v ->
    pieces of w(v)u is the set of all return words, discovered in order of
    first appearance.  theta(v) is that decomposition of w(v).
    """
    q = _require_primitive(z)
    letter, power = seed_letter(z)
    u = _prefix(z, letter, power, _compute_height(z, q).h)
    w = power_substitution(z, power)
    packed = _pack(u, z.size)

    def cut(v):
        img = w.apply(v) + u
        cuts = _occurrences(_pack(img, z.size), packed, len(packed) // len(u))
        if cuts[0] != 0:
            raise RuntimeError(f"u is not a prefix of z^{power}(v)u for return word {v}")
        return [img[a:b] for a, b in zip(cuts[:-1], cuts[1:])]

    words, images = _closure(_prefix(z, letter, power, _first_return(z, letter, power, u)), cut)
    alphabet = Alphabet(tuple(f"r{i}" for i in range(len(words))))
    return ReturnWordSystem(u=u, words=tuple(words), theta=Substitution(alphabet, images))


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

    Strips all factors x and all cyclotomic factors Phi_d from both (exact
    integer division, d up to 2*max(deg)^2 which covers every cyclotomic
    polynomial that could divide), then cancels the common factor.  trivial
    is true iff nothing is left on either side.
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
