"""Bi-substitution, coincidence matrix, and ergodic pair classes.

For a constant-length substitution zeta, the bi-substitution acts on ordered
letter pairs by applying zeta to both coordinates and reading the results
positionwise: (a,b) maps to the length-q pair word ((zeta(a)_i, zeta(b)_i)).
Its substitution matrix is the coincidence matrix C.

The directed graph "pair p' emits pair p" decomposes A x A into ergodic
classes (the minimal forward-invariant orbit closures, i.e. the terminal
strongly connected components — the diagonal E_0 is always one of them) and
a transitive remainder T.  Dekking's criterion reads the spectrum off this
picture: a height-1 substitution has purely discrete spectrum iff E_0 is
the only ergodic class, i.e. every pair of letters eventually develops a
coincidence.  The number k of ergodic classes equals the multiplicity of
the eigenvalue q in C, and drives the continuous-part decomposition
elsewhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .core import (
    Alphabet,
    IntMatrix,
    Substitution,
    _derived_alphabet,
    _stabilizing_power,
    constant_length,
    is_primitive,
    substitution_matrix,
)
from .reduction import compute_height

__all__ = [
    "PairAlphabet",
    "ErgodicClassification",
    "bisubstitution",
    "coincidence_matrix",
    "ergodic_classes",
    "dekking_pure_discrete",
    "bijectivity_profile",
]


@dataclass(frozen=True)
class PairAlphabet:
    """Ordered pairs (a,b) of letters, indexed row-major: (a,b) <-> a*m + b."""

    base: Alphabet

    @property
    def m(self) -> int:
        return len(self.base)

    def __len__(self) -> int:
        return self.m * self.m

    def index(self, a: int, b: int) -> int:
        return a * self.m + b

    def pair(self, i: int) -> tuple[int, int]:
        return divmod(i, self.m)

    def alphabet(self) -> Alphabet:
        """Pair (a,b) is named "(a,b)" from the letter tokens, or by index (see _derived_alphabet)."""
        tok = self.base.token
        return _derived_alphabet(f"({tok(a)},{tok(b)})" for a, b in map(self.pair, range(len(self))))


def bisubstitution(z: Substitution) -> Substitution:
    """The substitution induced on ordered pairs by positionwise application."""
    q = constant_length(z)
    if q is None:
        raise ValueError("bi-substitution requires constant length")
    pa = PairAlphabet(z.alphabet)
    m = z.size
    images = []
    for a in range(m):
        for b in range(m):
            za, zb = z.images[a], z.images[b]
            images.append(tuple(pa.index(za[i], zb[i]) for i in range(q)))
    return Substitution(pa.alphabet(), tuple(images))


def coincidence_matrix(z: Substitution) -> IntMatrix:
    """Substitution matrix of the bi-substitution: C[p, p'] counts the pair p
    in the image of p'.  m^2 x m^2, column sums q."""
    return substitution_matrix(bisubstitution(z))


@dataclass(frozen=True)
class ErgodicClassification:
    """Ergodic classes E_0..E_{k-1} (E_0 = diagonal), transitive pairs T, and
    the least power j at which C^j is entrywise positive on every class
    block (None if not reached within the Wielandt-style search bound),
    searched on first use from C's support rows and classes in _support."""

    classes: tuple[tuple[tuple[int, int], ...], ...]
    transitive: tuple[tuple[int, int], ...]
    k: int
    _support: tuple[list[int], list[list[int]]] = field(repr=False, compare=False)

    @cached_property
    def stabilizing_power(self) -> Optional[int]:
        return _stabilizing_power(*self._support)


def ergodic_classes(z: Substitution) -> ErgodicClassification:
    """Classify A x A into ergodic classes and transitive pairs.

    Pair p' emits p when p occurs in the bi-substitution image of p'; orbit
    closures are forward-reachable sets, and the minimal ones are exactly
    the terminal strongly connected components of the emission graph.  The
    diagonal is always terminal and connected (primitivity), so it is
    reported first as E_0; the remaining classes are ordered by their
    smallest pair index.
    """
    if not is_primitive(z).primitive:
        raise ValueError("ergodic classification requires a primitive substitution")
    return _ergodic_classes(z)


def _ergodic_classes(z: Substitution) -> ErgodicClassification:
    """`ergodic_classes` of a substitution already known to be primitive."""
    zz = bisubstitution(z)
    pa = PairAlphabet(z.alphabet)
    n = len(pa)
    labels = _strong_components(zz)

    terminal = set(labels)
    for p in range(n):
        for p2 in zz.images[p]:
            if labels[p2] != labels[p]:
                terminal.discard(labels[p])
    members: dict[int, list[int]] = {}
    for p in range(n):
        members.setdefault(labels[p], []).append(p)

    diag_label = labels[pa.index(0, 0)]
    if diag_label not in terminal:
        raise RuntimeError("the diagonal pairs do not form an ergodic class")
    if members[diag_label] != [pa.index(a, a) for a in range(z.size)]:
        raise RuntimeError("the diagonal class must consist of exactly the diagonal pairs")
    # each members list is in increasing pair index, so sorting the lists
    # orders the classes by their smallest pair
    class_indices = [members[diag_label]] + sorted(
        members[lab] for lab in terminal if lab != diag_label
    )
    classes = tuple(tuple(pa.pair(i) for i in cls) for cls in class_indices)
    trans = tuple(
        pa.pair(i) for i in range(n) if labels[i] not in terminal
    )

    # support rows of the coincidence matrix: bit p2 of row p is set iff p
    # occurs in the image of p2; columns indexed by a class have support
    # inside the class, since classes are forward-invariant
    support = [0] * n
    for p2, image in enumerate(zz.images):
        for p in image:
            support[p] |= 1 << p2
    return ErgodicClassification(
        classes=classes,
        transitive=trans,
        k=len(classes),
        _support=(support, class_indices),
    )


def _strong_components(z: Substitution) -> list[int]:
    """Label each letter by its strongly connected component in the graph
    a -> b for b in z(a) (the label is the component's Tarjan root).
    Tarjan's algorithm with an explicit stack, linear in the image lengths."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    labels = [-1] * z.size
    stack: list[int] = []
    for root in range(z.size):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(z.images[root]))]
        while work:
            v, successors = work[-1]
            for x in successors:
                if x not in index:
                    index[x] = low[x] = len(index)
                    stack.append(x)
                    work.append((x, iter(z.images[x])))
                    break
                if labels[x] < 0:  # x is on the stack
                    low[v] = min(low[v], index[x])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    while labels[v] < 0:
                        labels[stack.pop()] = v
    return labels


def dekking_pure_discrete(z: Substitution) -> bool:
    """Dekking's criterion: purely discrete spectrum iff the diagonal is the
    only ergodic class.  Only valid at height 1; callers holding a height-h
    substitution must pass its pure base."""
    q = constant_length(z)
    if q is None:
        raise ValueError("criterion requires constant length")
    h = compute_height(z).h  # checks primitivity
    if h != 1:
        raise ValueError(f"height is {h}, not 1; reduce to the pure base first")
    return _ergodic_classes(z).k == 1


def bijectivity_profile(z: Substitution) -> bool:
    """Is each position map a permutation?

    Position i induces the map a -> zeta(a)_i; the substitution is bijective
    when every position map is a permutation of the alphabet.
    """
    q = constant_length(z)
    if q is None:
        raise ValueError("bijectivity requires constant length")
    m = z.size
    return all(len({z.images[a][i] for a in range(m)}) == m for i in range(q))
