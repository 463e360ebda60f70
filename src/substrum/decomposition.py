"""The q-eigenspace of the coincidence matrix and its convex geometry.

The transpose coincidence matrix C^t has Perron eigenvalue q with
multiplicity k (the number of ergodic pair classes).  C^t / q is a Markov
chain on letter pairs, and its q-eigenspace F is the chain's space of
harmonic functions: every vector in F is constant on each ergodic class,
and its value on a transitive pair is the average of the class values
weighted by the probabilities that the chain started there is absorbed by
each class.  So the chart F <-> (one value per class) is a bijection, and
everything here is computed in that chart.

Reading a vector v in F as the m x m matrix W(a,b) = v_(a,b) singles out
the convex set Q = {v in F : W Hermitian PSD, unit diagonal}.  Q is compact
with exactly k extreme points, one of which is the all-ones vector, and the
extreme points generate the decomposition of the maximal spectral type into
mutually singular pieces.  The extreme points are only ever computed
exactly, in rational arithmetic:

- k = 2: Q is a segment in the one free chart coordinate t, with
  W(t) = W_0 + t W_1 = J + (t - 1) W_1 (J the all-ones matrix).  One end is
  the all-ones point t = 1, the other is t* = 1 - 1/c from one linear
  solve.  Each end is certified: W(t) is PSD by symmetric elimination, and
  a rational null vector of W(t) makes W indefinite just past t, so by
  convexity Q is exactly the segment between them.  Whether the W matrices
  commute does not matter.
- k >= 3: when the associated matrices have a rational common eigenbasis
  (they do on every bijective example shipped with this package),
  positive semidefiniteness becomes finitely many affine inequalities in
  the chart, Q is an explicit simplex, and its vertices are solved from
  (k-1)-subsets of active constraints.  Without such a basis the answer is
  "unsupported", with no points.

No classification verdict depends on any of this.

Each extreme point's W factors through its eigendecomposition into
cylindrical functions: W = sum_j kappa_j d_j d_j^* gives lambda =
sum_j sigma_{f_j} with f_j = sqrt(kappa_j) * conj(d_j) read as coefficients
of letter indicators.  Away from the all-ones point every f_j is orthogonal
to constants in L^2(mu), which is what kills the atom at 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import TYPE_CHECKING, Optional, Sequence, Union

from .coincidence import ErgodicClassification, PairAlphabet, coincidence_matrix, ergodic_classes
from .core import IntMatrix, Substitution, constant_length, substitution_matrix
from .exactlin import (
    _rref,
    char_poly_coeffs,
    factor_integer_poly,
    rational_nullspace,
    rational_rank,
    rational_solve,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ClassVector",
    "ExtremePoints",
    "CylindricalDecomposition",
    "letter_frequencies",
    "eigenspace_F",
    "chart_vector",
    "extreme_points_Q",
    "decompose_lambda",
]


def letter_frequencies(z: Substitution) -> tuple[Fraction, ...]:
    """Exact letter frequencies: the normalized q-eigenvector of S.

    Primitivity makes the q-eigenspace of the substitution matrix
    one-dimensional; the normalized generator has positive rational entries
    summing to 1, and equals the vector of cylinder measures mu[a].
    """
    q = constant_length(z)
    if q is None:
        raise ValueError("letter frequencies require constant length")
    S = substitution_matrix(z)
    n = S.dim
    A = tuple(
        tuple(Fraction(S.entries[r][c] - (q if r == c else 0)) for c in range(n))
        for r in range(n)
    )
    basis = rational_nullspace(A)
    if len(basis) != 1:
        raise ValueError("q-eigenspace of S is not one-dimensional; substitution not primitive?")
    v = basis[0]
    total = sum(v)
    if total == 0:
        raise RuntimeError("Perron eigenvector must have a nonzero sum")
    mu = tuple(x / total for x in v)
    if not all(x > 0 for x in mu):
        raise RuntimeError("Perron eigenvector must be strictly positive")
    return mu


@dataclass(frozen=True)
class ClassVector:
    """An element of the q-eigenspace F in the class chart.

    class_values[i] is the value on ergodic class E_i; pair_values is the
    full induced vector on A x A in row-major pair order, including the
    determined values on transitive pairs.  Entries are Fractions.
    """

    class_values: tuple[Fraction, ...]
    pair_values: tuple[Fraction, ...]
    m: int

    def W(self) -> np.ndarray:
        """The associated m x m matrix W(a,b) = v_(a,b), as complex floats."""
        import numpy as np

        return np.array(self.W_exact(), dtype=complex)

    def W_exact(self) -> tuple[tuple[Fraction, ...], ...]:
        """The associated m x m matrix W(a,b) = v_(a,b), in Fractions."""
        return tuple(
            tuple(self.pair_values[a * self.m + b] for b in range(self.m))
            for a in range(self.m)
        )


def eigenspace_F(
    z: Substitution, classification: Optional[ErgodicClassification] = None
) -> tuple[ClassVector, ...]:
    """Chart basis of the q-eigenspace F of C^t: vector i is 1 on E_i, 0 on
    the other classes, and on a transitive pair t the probability that the
    pair chain started at t is absorbed by E_i.

    Why this is F.  The columns of C sum to q, so P = C^t / q is stochastic
    and F = {v : v = P v} is its space of harmonic functions.  Each class is
    closed and strongly connected (checked by `ergodic_classes`), so by
    Perron-Frobenius a harmonic v is constant on it.  Every transitive pair
    reaches a class, so P_TT has spectral radius < 1 and qI - C^t_TT is
    invertible: the class values fix v on T.  Hence dim F = k and the chart
    is a bijection (Kemeny and Snell, Finite Markov Chains, absorbing chains).

    One row reduction of [qI - C^t_TT | c_1 .. c_k] gives all k vectors on
    T, where c_i(t) counts the positions at which t emits a pair of E_i.  A
    bijective substitution has no transitive pairs: its position maps permute
    the pairs, so every pair emits and is emitted q times, a component that
    no edge enters has no edge out, and peeling such components off shows
    that every component is a class.  Each vector is checked exactly to lie
    in F.
    """
    q = constant_length(z)
    if q is None:
        raise ValueError("eigenspace requires constant length")
    if classification is None:
        classification = ergodic_classes(z)
    k = classification.k
    pa = PairAlphabet(z.alphabet)
    label = {pa.index(a, b): i for i, cls in enumerate(classification.classes) for a, b in cls}
    T = [pa.index(a, b) for a, b in classification.transitive]
    Ct = coincidence_matrix(z).transpose()
    # each pair's values in the k basis vectors: e_i on a pair of E_i
    values = {p: tuple(Fraction(int(i == j)) for j in range(k)) for p, i in label.items()}
    if T:
        rows = []
        for t in T:
            row = Ct.entries[t]
            emitted = [0] * k
            for p, count in enumerate(row):
                if p in label:
                    emitted[label[p]] += count
            rows.append([q * (t == s) - row[s] for s in T] + emitted)
        R, pivots = _rref(rows)
        if pivots[: len(T)] != list(range(len(T))):
            raise RuntimeError("qI - C^t must be invertible on the transitive pairs")
        values.update((t, tuple(row[len(T):])) for t, row in zip(T, R))
    out = []
    for i in range(k):
        pair_values = tuple(values[p][i] for p in range(len(pa)))
        _check_in_F(Ct, q, pair_values)
        out.append(
            ClassVector(
                class_values=tuple(Fraction(int(i == j)) for j in range(k)),
                pair_values=pair_values,
                m=z.size,
            )
        )
    return tuple(out)


def _check_in_F(Ct: IntMatrix, q: int, v: Sequence[Fraction]) -> None:
    n = Ct.dim
    for r in range(n):
        acc = sum(Fraction(Ct.entries[r][c]) * v[c] for c in range(n)) - q * v[r]
        if acc != 0:
            raise RuntimeError("vector must lie in the q-eigenspace of C^t")


def chart_vector(basis: Sequence[ClassVector], w: Sequence[Fraction]) -> ClassVector:
    """The element of F with class values w, as a combination of the chart basis.

    The class values are read as Fractions (ints and floats convert exactly)."""
    if len(w) != len(basis):
        raise ValueError(f"need one class value per basis vector ({len(basis)}), got {len(w)}")
    w = tuple(Fraction(x) for x in w)
    n = len(basis[0].pair_values)
    pair_values = tuple(
        sum(wi * b.pair_values[t] for wi, b in zip(w, basis)) for t in range(n)
    )
    return ClassVector(class_values=w, pair_values=pair_values, m=basis[0].m)


@dataclass(frozen=True)
class ExtremePoints:
    """The extreme points of Q, with the method that produced them.

    method is "exact" or "unsupported".  An exact result has exactly k
    points in rational arithmetic, the all-ones point first: for k = 2 the
    two certified ends of the segment Q, for k >= 3 the vertices of the
    simplex Q from a rational common eigenbasis of the associated matrices.
    "unsupported" (k >= 3 without such a basis) has no points; detail says
    why."""

    points: tuple[ClassVector, ...]
    method: str
    detail: str


def extreme_points_Q(z: Substitution) -> ExtremePoints:
    """Extreme points of Q = {v in F : W(v) PSD, v_aa = 1}.

    The diagonal pairs form E_0, so the unit-diagonal constraint pins the
    chart coordinate w_0 = 1 and Q lives in the remaining k-1 coordinates:
    a certified segment for k = 2, a simplex from a rational common
    eigenbasis for k >= 3, and "unsupported" when k >= 3 has no such basis.
    Raises RuntimeError when an exact result does not have exactly k
    points including the all-ones point.
    """
    classification = ergodic_classes(z)
    basis = eigenspace_F(z, classification)
    k = len(basis)
    Ws = [b.W_exact() for b in basis]
    if k == 1:
        result = ExtremePoints(points=(basis[0],), method="exact", detail="Q is a single point")
    elif k == 2:
        result = _extreme_points_segment(basis, Ws)
    else:
        result = _extreme_points_exact(basis, Ws)
        if result is None:
            return ExtremePoints(
                points=(),
                method="unsupported",
                detail="k >= 3 and the associated matrices have no rational common eigenbasis",
            )
    values = [p.class_values for p in result.points]
    if len(values) != k or (Fraction(1),) * k not in values:
        raise RuntimeError(f"Q must have exactly k = {k} extreme points, one of them all-ones; got {values}")
    return result


def _form(W, x, y) -> Fraction:
    """The bilinear form x^T W y."""
    return sum(xi * sum(w * yj for w, yj in zip(row, y)) for xi, row in zip(x, W))


def _negative_direction(M) -> Optional[tuple[Fraction, ...]]:
    """A rational x with x^T M x < 0 for a symmetric rational M, or None if M is PSD.

    Symmetric elimination: a positive pivot is eliminated through its Schur
    complement, whose witness y lifts to (-M[0,1:].y / M[0,0], y); a zero
    pivot with a nonzero entry M[0,j] makes M indefinite.
    """
    n = len(M)
    if n == 0:
        return None
    zero = (Fraction(0),) * (n - 1)
    a = M[0][0]
    if a < 0:
        return (Fraction(1),) + zero
    if a == 0:
        j = next((j for j in range(1, n) if M[0][j] != 0), None)
        if j is None:
            y = _negative_direction([row[1:] for row in M[1:]])
            return None if y is None else (Fraction(0),) + y
        # x = s e_0 + e_j has x^T M x = 2 s M[0][j] + M[j][j] = -1
        return (-(M[j][j] + 1) / (2 * M[0][j]),) + zero[: j - 1] + (Fraction(1),) + zero[j:]
    y = _negative_direction([[M[i][j] - M[i][0] * M[0][j] / a for j in range(1, n)] for i in range(1, n)])
    if y is None:
        return None
    return (-sum(M[0][j] * yj for j, yj in zip(range(1, n), y)) / a,) + y


def _extreme_points_segment(basis, Ws) -> ExtremePoints:
    """Q for k = 2: the segment of t with W(t) = W_0 + t W_1 PSD, both ends certified.

    W(1) = J; at the other end t* a null vector x of W(t*) = J + (t* - 1) W_1
    with 1^T x = 1 solves W_1 x + lambda 1 = 0, and then t* = 1 - 1/c for
    c = x^T W_1 x.
    """
    W0, W1 = Ws
    if W0 != tuple(zip(*W0)) or W1 != tuple(zip(*W1)):
        raise RuntimeError("W_0 and W_1 must be symmetric")
    m = len(W1)
    R, pivots = _rref([list(row) + [1, 0] for row in W1] + [[1] * m + [0, 1]])
    if m + 1 in pivots:
        raise RuntimeError("W_1 x + lambda 1 = 0, 1^T x = 1 has no solution")
    x = [Fraction(0)] * (m + 1)
    for row, col in zip(R, pivots):
        x[col] = row[m + 1]
    c = _form(W1, x[:m], x[:m])
    if c == 0:
        raise RuntimeError("x^T W_1 x = 0: Q has no second end")
    ends = (Fraction(1), 1 - 1 / c)
    for t, other in (ends, ends[::-1]):
        Wt = [[a + t * b for a, b in zip(r0, r1)] for r0, r1 in zip(W0, W1)]
        if _negative_direction(Wt) is not None:
            raise RuntimeError(f"W({t}) is not PSD")
        # a null vector x of W(t) with (t - other) x^T W_1 x < 0 makes W indefinite past t
        null = rational_nullspace(Wt)
        if _negative_direction([[(t - other) * _form(W1, u, v) for v in null] for u in null]) is None:
            raise RuntimeError(f"W stays PSD just past t = {t}")
    return ExtremePoints(
        points=tuple(chart_vector(basis, (1, t)) for t in ends),
        method="exact",
        detail="k = 2: the segment between two ends certified in rational arithmetic",
    )


def _common_eigenvectors(Ws: list) -> Optional[list[tuple[Fraction, ...]]]:
    """A rational basis of common eigenvectors of the family, or None.

    The eigenvalues of a generic combination G are read off the linear
    factors of the characteristic polynomial of the integer matrix D*G (D the
    common denominator of G), and its eigenvectors are the nullspaces of
    D*G - r I.  A factor of degree > 1 means an irrational eigenvalue, so no
    rational common eigenbasis exists.  Every W is checked to act diagonally
    on the basis, so a family that does not commute also gives None.
    """
    m = len(Ws[0])
    for weights in ((3, 9, 27), (5, 25, 125), (7, 11, 13)):
        G = [[Fraction(0)] * m for _ in range(m)]
        for t, W in enumerate(Ws):
            wt = Fraction(weights[t % len(weights)]) ** (t + 1)
            for r in range(m):
                for c in range(m):
                    G[r][c] += wt * W[r][c]
        D = lcm(*(x.denominator for row in G for x in row))
        DG = IntMatrix(tuple(tuple(int(x * D) for x in row) for row in G))
        factors = factor_integer_poly(char_poly_coeffs(DG))
        if any(len(fac) > 2 for fac, _ in factors):
            return None
        vecs = []
        for fac, _ in factors:
            r = -fac[1]
            vecs.extend(
                rational_nullspace(
                    [[x - (r if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(DG.entries)]
                )
            )
        if len(vecs) != m:
            continue  # defective generic combination; reweight
        # every W must act diagonally on every candidate vector
        ok = True
        for W in Ws:
            for v in vecs:
                Wv = tuple(sum(W[r][c] * v[c] for c in range(m)) for r in range(m))
                pivot = next((i for i, x in enumerate(v) if x != 0))
                lam = Wv[pivot] / v[pivot]
                if any(Wv[i] != lam * v[i] for i in range(m)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return vecs
    return None


def _extreme_points_exact(basis, Ws) -> Optional[ExtremePoints]:
    """The vertices of the simplex Q, or None without a rational common eigenbasis."""
    k = len(basis)
    m = len(Ws[0])
    vecs = _common_eigenvectors(Ws)
    if vecs is None:
        return None
    # Rayleigh values: on a common eigenvector v, W(w) has eigenvalue
    # sum_i w_i c[i], an affine function of the chart
    rows = []
    for v in vecs:
        norm = sum(x * x for x in v)
        row = []
        for W in Ws:
            Wv = tuple(sum(W[r][c] * v[c] for c in range(m)) for r in range(m))
            row.append(sum(a * b for a, b in zip(Wv, v)) / norm)
        rows.append(tuple(row))
    # dedupe proportional constraints (positive scaling)
    uniq: list[tuple[Fraction, ...]] = []
    for row in rows:
        lead = next((x for x in row if x != 0), None)
        if lead is None:
            continue
        scaled = tuple(x / abs(lead) for x in row)
        if scaled not in uniq:
            uniq.append(scaled)
    # chart: w_0 = 1, unknowns w_1..w_{k-1}; constraint row: c0 + sum ci wi >= 0
    dim = k - 1
    vertices: list[tuple[Fraction, ...]] = []
    for combo in combinations(uniq, dim):
        A = [row[1:] for row in combo]
        if rational_rank(A) != dim:
            continue
        w = rational_solve(A, [-row[0] for row in combo])
        full = (Fraction(1),) + w
        if all(sum(ci * wi for ci, wi in zip(row, full)) >= 0 for row in uniq):
            if full not in vertices:
                vertices.append(full)
    ones = tuple(Fraction(1) for _ in range(k))
    vertices.sort(key=lambda w: (w != ones, w))
    points = tuple(chart_vector(basis, w) for w in vertices)
    return ExtremePoints(
        points=points,
        method="exact",
        detail="commuting associated matrices; simplex vertices in rational arithmetic",
    )


@dataclass(frozen=True)
class CylindricalDecomposition:
    """lambda = sum_j sigma_{f_j} with f_j = sum_a b_{j,a} 1_a.

    terms[j] = (kappa_j, b_j) where kappa_j > 0 is the W-eigenvalue and
    b_j = sqrt(kappa_j) * conj(d_j) for the orthonormal eigenvector d_j.
    reconstruction_error = max entrywise |sum_j kappa_j d_j d_j^* - W|;
    orthogonality_error = max_j |sum_a b_{j,a} mu[a]| (None for the
    all-ones point, whose single generator is the constant function)."""

    terms: tuple[tuple[float, tuple[complex, ...]], ...]
    reconstruction_error: float
    orthogonality_error: Optional[float]


def decompose_lambda(
    v: ClassVector, mu: Sequence[Union[Fraction, float]]
) -> CylindricalDecomposition:
    """Cylindrical decomposition of the spectral measure of an extreme point.

    Diagonalizes W(v) (checked symmetric exactly; eigenvalues clamped at 0 below a -1e-12
    tolerance, anything lower raises), keeps the strictly positive
    eigenvalues, and returns the cylindrical generators.  For every point
    except all-ones, each generator is checked to be orthogonal to constants
    in L^2(mu) within 1e-10 — this is what guarantees sigma_{f_j}({0}) = 0.
    """
    import numpy as np

    Wx = v.W_exact()
    if Wx != tuple(zip(*Wx)):
        raise ValueError("associated matrix is not symmetric")
    W = v.W()
    vals, vecs = np.linalg.eigh(W)
    if vals[0] < -1e-12:
        raise ValueError(f"associated matrix is not PSD: min eigenvalue {vals[0]:.3e}")
    vals = np.clip(vals, 0.0, None)
    terms = []
    recon = np.zeros_like(W)
    for j in range(len(vals)):
        d = vecs[:, j]
        recon += vals[j] * np.outer(d, d.conj())
        # the zero eigenvalues of W come out as O(eps) noise either side of
        # 0; only genuinely positive eigenvalues contribute a generator
        if vals[j] > 1e-12:
            b = np.sqrt(vals[j]) * d.conj()
            terms.append((float(vals[j]), tuple(complex(x) for x in b)))
    reconstruction_error = float(np.max(np.abs(recon - W)))
    if reconstruction_error > 1e-10:
        raise RuntimeError(f"eigendecomposition must reconstruct W: error {reconstruction_error:.3e}")

    mu_f = np.array([float(x) for x in mu])
    all_ones = all(x == 1 for x in v.class_values)
    orth: Optional[float] = None
    if not all_ones:
        orth = 0.0
        for _, b in terms:
            err = abs(sum(bb * mm for bb, mm in zip(b, mu_f)))
            orth = max(orth, float(err))
        if orth > 1e-10:
            raise RuntimeError(f"generator not orthogonal to constants: {orth:.3e}")
    return CylindricalDecomposition(
        terms=tuple(terms),
        reconstruction_error=reconstruction_error,
        orthogonality_error=orth,
    )
