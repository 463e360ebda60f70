"""Empirical spectral analysis along the fixed point.

Everything here is estimation, not certification: correlation Fourier
coefficients from Birkhoff averages over a long fixed-point prefix, the
times-q renormalization identity as a consistency check, Cesaro point-mass
extraction, Fejer ball-mass estimates feeding log-log local-dimension fits,
and partial-sum growth exponents.  The exact modules never consume these
numbers; they corroborate them.

Conventions.  All estimates derive from one table of exact integer lag
counts N[k, a, b] = #{n < L : u[n] = a, u[n+k] = b} (see _lag_counts).  The
pair correlation stored per pair (a, b) is

    sigma_ab(k) = (1/L) * sum_{n<L} 1_a(u[n+k]) * 1_b(u[n]) = N[k, b, a] / L

and for a cylindrical f = sum_a b_a 1_a,

    sigma_f(k) = (1/L) * sum_{n<L} f(u[n+k]) * conj(f(u[n]))
               = sum_{a,b} b_a conj(b_b) sigma_ab(k).

Both satisfy the renormalization pull-back against the coincidence matrix C:
sigma_ab(q n) ~ (1/q) sum_{c,d} C[(a,b),(c,d)] sigma_cd(n), because C is
invariant under transposing pairs simultaneously in rows and columns.

Determinism: counts are exact integers, so every derived table is
bit-identical across runs for fixed (z, K, L).  The lag counting recurses
through u = w(u) from the empty prefix up, and its top level projects onto
the integer columns W a consumer needs (all pairs, or the one column of a
rational f), exactly while L * max|W| <= 2^53; a rational f's sigma_f(k)
is the exact rational rounded once.  At L = 10^6 on 2 cores it takes 1 ms
at K = 4096 and 4 ms at K = 3^10 (all pairs: 2, 12 ms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .coincidence import coincidence_matrix
from .core import (
    Substitution,
    constant_length,
    fixed_point_prefix,
    power_substitution,
    seed_letter,
    substitution_matrix,
)
from .decomposition import letter_frequencies
from .eigen import j_pr_kappa

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DEFAULT_PREFIX",
    "DEFAULT_LAGS",
    "PairCorrelations",
    "CorrelationTable",
    "DimensionEstimate",
    "BirkhoffGrowth",
    "pair_correlations",
    "correlations",
    "renormalization_check",
    "point_mass_at_zero",
    "ball_mass",
    "dimension_fit",
    "birkhoff_growth",
    "expected_zero_coefficient",
    "mean_under_frequencies",
]

DEFAULT_PREFIX = 10**7
DEFAULT_LAGS = 4096

# float64 represents every integer up to 2^53, so lag counts stay exact up to this L
_EXACT_FLOAT_MAX = 2**53
# multiply-adds per matrix product in _lag_counts.  OpenBLAS runs products
# this small on the calling thread; one product per level at K = 3^10 starts
# a second thread, which cost 3 MB of resident memory in each fresh process
# and made the counts no faster on 2 cores.
_BLAS_CALL_MACS = 2**18
# birkhoff_growth fits its partial sums at the lengths N = q^n for these n
_GROWTH_EXPONENTS = range(4, 13)


@dataclass(frozen=True)
class PairCorrelations:
    """All pair correlations sigma_ab(k) = sigma[k, a, b], 0 <= k <= K, for one substitution."""

    K: int
    L: int
    tokens: tuple[str, ...]
    sigma: np.ndarray

    def flat(self) -> np.ndarray:
        """(K+1, m*m) view, pair (a,b) at column a*m + b."""
        return self.sigma.reshape(self.K + 1, -1)


@dataclass(frozen=True)
class CorrelationTable:
    """sigma_hat(k) for one function: a letter pair or a cylindrical vector."""

    K: int
    L: int
    sigma: np.ndarray  # complex128, shape (K+1,)

    def __post_init__(self):
        if self.sigma.shape != (self.K + 1,):
            raise ValueError("sigma must have K+1 entries")


def _lag_transfers(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The transfer matrices T_delta, transposed and stacked side by side in float64.

    T_delta[(a,b), (x,y)] = #{i : w(x)_i = a, w(y)_{i+delta} = b} for 1-Q <= delta < Q,
    where images is the (m, Q) table of w = z^p; T_0 is the coincidence matrix of w.
    Returns (forward, backward): column block delta of forward is T_delta^T for
    0 <= delta < Q, and column block delta + Q - 1 of backward is T_delta^T for
    1-Q <= delta < 0, each block m^2 wide.
    """
    import numpy as np

    m, Q = images.shape
    pairs = (np.arange(m)[:, None, None] * m + np.arange(m)[None, :, None]) * (m * m)
    blocks = []
    for delta in range(1 - Q, Q):
        i = np.arange(max(0, -delta), min(Q, Q - delta))
        codes = pairs + images[:, None, i] * m + images[None, :, i + delta]
        # row (x,y), column (a,b): already T_delta^T
        blocks.append(np.bincount(codes.ravel(), minlength=m**4).reshape(m * m, m * m))
    return (
        np.hstack(blocks[Q - 1 :]).astype(np.float64),
        np.hstack(blocks[: Q - 1]).astype(np.float64),
    )


def _lag_counts(z: Substitution, L: int, K: int, W: Optional[np.ndarray] = None) -> np.ndarray:
    """Lag counts N[k, a, b] = #{n < L : u[n] = a, u[n+k] = b}, 0 <= k <= K.

    Returns the exact int64 table N, shape (K+1, m, m), or for a weight
    matrix W of shape (m*m, c) the float64 projection sum_{a,b} N[k, a, b]
    W[a*m + b, :], shape (K+1, c), exact for an integer W.

    u is the fixed point of w = z^p at the seed letter (a, p), so u = w(u)
    and symbol Q j + i of u is w(u[j])_i with Q = q^p.  The counts for L =
    Q L' + s follow exactly from the counts for L' with lags up to
    ceil(K/Q), plus the s tail positions (the counting form of the
    renormalization S_q(Sigma) = (1/q) C Sigma).  The recursion runs down to
    the empty prefix, L = 0, whose counts are zero and whose window is the
    first K+1 symbols of u, so no long prefix of u is ever built.

    Each level multiplies the child's table by the stacked transfer
    matrices (see _lag_transfers), already multiplied by its weights, in
    float64 products of at most _BLAS_CALL_MACS multiply-adds, and adds one
    row of its weights per tail position.  Child levels weigh by the
    identity; the top level, which holds (Q-1)/Q of all rows, weighs by W
    with an all-ones column that must read L on every lag.  Every term and
    partial sum is an integer of modulus at most L * max(1, max|W|), and
    float64 holds every integer up to 2^53, so a larger bound raises
    ValueError.
    """
    import numpy as np

    q = constant_length(z)
    if q is None or q < 2:
        raise ValueError("lag counting requires a constant-length substitution with q >= 2")
    if L < 1:
        raise ValueError("prefix length L must be >= 1")
    if K < 0:
        raise ValueError("max lag K must be >= 0")
    m = z.size
    identity = np.eye(m * m)
    top = identity if W is None else np.asarray(W)
    weight = max(1, int(np.abs(top).max())) if top.dtype.kind in "iu" else 1
    if L * weight > _EXACT_FLOAT_MAX:
        raise ValueError(f"L * max|W| = {L * weight} must be <= 2^53 = {_EXACT_FLOAT_MAX} for exact counts")
    top = np.hstack([top, np.ones((m * m, 1))]).astype(np.float64)
    letter, power = seed_letter(z)
    images = np.array(power_substitution(z, power).images, dtype=np.int64)
    Q = images.shape[1]
    forward, backward = _lag_transfers(images)

    def counts_and_window(L: int, K: int, fwd: np.ndarray, bwd: np.ndarray, W: np.ndarray):
        """(N over u[:L] with lags 0..K, times W, as float64 (K+1, c), and the window
        u[L : L+K+1]); fwd and bwd are the transfer stacks already multiplied by W."""
        c = W.shape[1]
        if L == 0:
            return np.zeros((K + 1, c)), fixed_point_prefix(z, letter, power, K + 1)
        child_L, s = divmod(L, Q)
        child_K = -(-K // Q)
        child, window = counts_and_window(child_L, child_K, forward, backward, identity)
        rows = max(1, _BLAS_CALL_MACS // (Q * m * m * c))  # child rows per product
        # position n = Q j + i < Q L' has partner n + k = Q (j + d) + r, with
        # i + k = Q d + r: the child pair (u[j], u[j+d]) read through columns
        # i and r of w.  Grouping by delta = r - i = k - Q d gives
        # N_L[Q d + delta] += T_delta N_L'[d], so row d of child @ forward
        # holds rows Q d .. Q d + Q - 1, and row d of child @ backward adds
        # into rows Q (d-1) + 1 .. Q (d-1) + Q - 1.
        D = child_K + 1
        counts = np.empty((D, Q, c))
        for lo in range(0, D, rows):
            hi = min(lo + rows, D)
            block = child[lo : hi + 1]  # with row hi, whose backward blocks land in row hi - 1
            counts[lo:hi] = (block[: hi - lo] @ fwd).reshape(hi - lo, Q, c)
            counts[lo : lo + len(block) - 1, 1:] += (block[1:] @ bwd).reshape(-1, Q - 1, c)
        counts = counts.reshape(-1, c)[: K + 1]
        # u = w(u), so w(u[L' : L'+K'+1]) = u[Q L' : Q (L'+K'+1)]: it holds the
        # s tail positions Q L' .. L-1 with all their partners, and u[L : L+K+1]
        image = images[window].ravel()
        for t in range(s):
            counts += W[image[t] * m + image[t : t + K + 1]]
        return counts, image[s : s + K + 1]

    # T_delta^T top for every delta
    fwd, bwd = ((T.reshape(m * m, -1, m * m) @ top).reshape(m * m, -1) for T in (forward, backward))
    counts, _ = counts_and_window(L, K, fwd, bwd, top)
    if not np.all(counts[:, -1] == L):
        raise RuntimeError(f"lag counts do not sum to L={L} on every lag row: {np.unique(counts[:, -1])}")
    counts = counts[:, :-1]
    return counts if W is not None else counts.astype(np.int64).reshape(K + 1, m, m)


def pair_correlations(z: Substitution, K: int = DEFAULT_LAGS, L: int = DEFAULT_PREFIX) -> PairCorrelations:
    """Estimate all pair correlations at budget (K, L)."""
    import numpy as np

    counts = _lag_counts(z, L, K)
    # public convention puts the lead letter first: sigma_ab(k) = N[k,b,a]/L
    sigma = np.swapaxes(counts, 1, 2) / L
    return PairCorrelations(K, L, z.alphabet.letters, sigma)


def _coefficient_vector(z: Substitution, f) -> np.ndarray:
    import numpy as np

    try:
        vec = np.asarray([complex(x) for x in f], dtype=np.complex128)
    except OverflowError as exc:
        raise ValueError(f"cylindrical vector entries must fit in float64: {exc}") from exc
    if vec.shape != (z.size,):
        raise ValueError(f"cylindrical vector must have {z.size} entries, got {vec.shape}")
    return vec


def _function_weights(z: Substitution, f, L: int) -> tuple[np.ndarray, int]:
    """(W, scale) with sigma_f = N @ W / (L * scale), W[a*m + b] weighing f_b conj(f_a): the exact
    column n_a n_b and d^2 for a rational f = n / d with L max(d, |n|)^2 <= 2^53, else float64
    real and imaginary columns and 1, which must be finite."""
    import numpy as np

    try:
        exact = [Fraction(x) for x in f]
    except (TypeError, ValueError, OverflowError):
        exact = []
    d = math.lcm(*(x.denominator for x in exact))
    n = [int(x * d) for x in exact]
    if len(n) == z.size and L * max(d, *map(abs, n)) ** 2 <= _EXACT_FLOAT_MAX:
        return np.array([[a * b] for a in n for b in n], dtype=np.int64), d * d
    vec = _coefficient_vector(z, f)
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.outer(np.conj(vec), vec).ravel()
    if not np.all(np.isfinite(w)):
        raise ValueError("weights f_a conj(f_b) must be finite in float64")
    return np.stack([w.real, w.imag], axis=1), 1


def correlations(
    z: Substitution,
    f_or_pair,
    K: int = DEFAULT_LAGS,
    L: int = DEFAULT_PREFIX,
) -> CorrelationTable:
    """Correlation coefficients sigma_hat(k), k = 0..K, for a pair or a vector.

    A pair is a 2-tuple of letter *tokens* (strings); any other sequence is
    read as a cylindrical coefficient vector, one entry per letter, whose
    float64 weights f_a conj(f_b) must be finite.  Results are deterministic
    for fixed (z, K, L).
    """
    import numpy as np

    if (
        isinstance(f_or_pair, tuple)
        and len(f_or_pair) == 2
        and all(isinstance(x, str) for x in f_or_pair)
    ):
        # sigma_ab(k) = N[k, b, a] / L: the one-hot column of the pair (b, a)
        a, b = (z.alphabet.index(x) for x in f_or_pair)
        W, scale = (np.arange(z.size**2)[:, None] == b * z.size + a).astype(np.int64), 1
    else:
        W, scale = _function_weights(z, f_or_pair, L)
    sums = _lag_counts(z, L, K, W) / (L * scale)
    sigma = sums[:, 0] + 1j * sums[:, 1] if W.shape[1] == 2 else sums[:, 0].astype(np.complex128)
    return CorrelationTable(K, L, sigma)


def renormalization_check(
    z: Substitution,
    K: int = 1000,
    L: int = DEFAULT_PREFIX,
) -> float:
    """Max deviation of sigma_ab(q n) from (1/q) * C applied to sigma_cd(n).

    The Fourier side of the times-q pull-back S_q(Sigma) = (1/q) C Sigma;
    exact in the limit, so the deviation measures estimation error and must
    shrink as L grows.  Compared for all pairs and all 0 <= n <= K/q.
    """
    import numpy as np

    q = constant_length(z)
    if q is None:
        raise ValueError("renormalization requires a constant-length substitution")
    table = pair_correlations(z, K, L)
    C = np.array(coincidence_matrix(z).entries, dtype=np.float64)
    flat = table.flat()
    n_max = K // q
    lhs = flat[q * np.arange(n_max + 1)]
    rhs = flat[: n_max + 1] @ C.T / q
    return float(np.max(np.abs(lhs - rhs)))


def point_mass_at_zero(table: CorrelationTable) -> float:
    """Cesaro estimate of the atom at 0: (1/K) sum_{k<K} sigma_hat(k).

    Converges to sigma({0}) by Wiener's lemma; for cylindrical f this equals
    |sum_a b_a mu[a]|^2.  The imaginary part of the average vanishes in the
    limit and is discarded.
    """
    import numpy as np

    K = table.K
    return float(np.mean(table.sigma[:K]).real)


def ball_mass(table: CorrelationTable, r: float) -> float:
    """Fejer estimate of sigma(B_r(0)) with window N = round(1/r).

    (1/N) sum_{|k|<N} (1 - |k|/N) sigma_hat(k), folded to k >= 0 by the
    Hermitian symmetry sigma_hat(-k) = conj(sigma_hat(k)).  The Fejer kernel
    is nonnegative and comparable to the sharp indicator of B_r only up to
    constants, which cancel in log-log slopes.
    """
    import numpy as np

    # a radius that underflowed to 0.0, or whose inverse overflows, has no window
    if not 0.0 < r < math.inf or 1.0 / r == math.inf:
        raise ValueError(f"radius must be a positive finite float with a finite inverse, got {r!r}")
    N = max(1, int(round(1.0 / r)))
    if N > table.K:
        raise ValueError(f"radius {r} needs {N} lags but the table holds K={table.K}")
    k = np.arange(1, N)
    mass = table.sigma[0].real
    if N > 1:
        mass += 2.0 * np.sum((1.0 - k / N) * table.sigma[1:N].real)
    return float(mass / N)


@dataclass(frozen=True)
class DimensionEstimate:
    """Log-log fit of ball mass against radius at scales r_n = q^{-n}."""

    scales: tuple[int, ...]
    radii: tuple[float, ...]
    masses: tuple[float, ...]
    corrected_masses: tuple[float, ...]
    d_hat: float
    residual: float
    d_pred: Optional[float]
    prediction: str
    j: int
    theta_modulus: float
    kappa: int


def _fit_function(f) -> list[Fraction]:
    """f as rationals for `dimension_fit`, or ValueError: real rationals, not
    all zero.  One per letter, with finite float64 weights, is checked by
    `_function_weights`, which `correlations` runs before any counting."""
    try:
        rational_f = [Fraction(x) for x in f]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError("dimension prediction needs rational real coefficients") from exc
    if not any(rational_f):
        raise ValueError("f must be nonzero")
    return rational_f


def dimension_fit(
    z: Substitution,
    f: Sequence,
    scales: Optional[Sequence[int]] = None,
    K: int = DEFAULT_LAGS,
    L: int = DEFAULT_PREFIX,
) -> DimensionEstimate:
    """Estimate the local dimension of sigma_f at 0 and compare to 2 - 2*alpha.

    Fits the slope of log ball_mass(q^{-n}) against log q^{-n} over the given
    exponents n (default: every n >= 1 with q^n <= K; an n with q^n > K
    raises ValueError before any counting).  When the elimination
    exponent kappa of f exceeds 1, masses are divided by |log r|^(kappa-1)
    before fitting.  The prediction d = 2 - 2 log_q |theta_j| applies when
    |theta_j| > 1; otherwise the mass decays faster than r^(2-eps) for every
    eps and only that regime is reported.
    """
    import numpy as np

    q = constant_length(z)
    if q is None:
        raise ValueError("dimension estimation requires a constant-length substitution")
    if q < 2:
        raise ValueError(f"dimension estimation needs radii q^-n < 1, so q >= 2 (got q = {q})")
    # the deepest scale the table holds: the largest n with q^n <= K, in integers
    top = 0
    while q ** (top + 1) <= K:
        top += 1
    if scales is None:
        scales = range(1, top + 1)
    scales = tuple(int(n) for n in scales)
    if any(n < 1 for n in scales):
        raise ValueError("scales are exponents n >= 1 of r = q^-n")
    if len(set(scales)) < len(scales):
        raise ValueError(f"scales must be distinct, got {list(scales)}")
    n = max(scales, default=0)
    if n > top:
        raise ValueError(f"scale n = {n} needs q^n = {q}^{n} lags, more than K = {K}")

    rational_f = _fit_function(f)
    table = correlations(z, rational_f, K, L)
    elim = j_pr_kappa(substitution_matrix(z), rational_f)
    theta_mod = float((elim.theta_modulus_lo + elim.theta_modulus_hi) / 2)
    kappa = elim.kappa

    used, radii, masses, corrected = [], [], [], []
    for n in scales:
        r = q ** (-n)
        mass = ball_mass(table, r)
        if mass <= 0.0:
            continue
        used.append(n)
        radii.append(r)
        masses.append(mass)
        corr = mass / abs(math.log(r)) ** (kappa - 1) if kappa > 1 else mass
        corrected.append(corr)
    if len(radii) < 5:
        raise ValueError(f"only {len(radii)} usable scales; need at least 5")

    log_r = np.log(radii)
    log_m = np.log(corrected)
    A = np.stack([log_r, np.ones_like(log_r)], axis=1)
    (slope, _intercept), *_ = np.linalg.lstsq(A, log_m, rcond=None)
    residual = float(np.sqrt(np.mean((A @ np.array([slope, _intercept]) - log_m) ** 2)))

    if theta_mod > 1.0:
        d_pred = 2.0 - 2.0 * math.log(theta_mod, q)
        prediction = f"d = 2 - 2 log_q|theta_j| = {d_pred:.6g}"
    else:
        d_pred = None
        prediction = "mass is o(r^(2-eps)) for every eps > 0; local dimension >= 2 - eps"

    return DimensionEstimate(
        scales=tuple(used),
        radii=tuple(float(r) for r in radii),
        masses=tuple(float(x) for x in masses),
        corrected_masses=tuple(float(x) for x in corrected),
        d_hat=float(slope),
        residual=residual,
        d_pred=d_pred,
        prediction=prediction,
        j=elim.j,
        theta_modulus=theta_mod,
        kappa=kappa,
    )


@dataclass(frozen=True)
class BirkhoffGrowth:
    """Fitted growth exponent of running-max partial sums at q-adic lengths."""

    exponent: float
    residual: float
    lengths: tuple[int, ...]
    max_sums: tuple[float, ...]


def birkhoff_growth(z: Substitution, f: Sequence) -> BirkhoffGrowth:
    """Fit log max_{M<=N} |S_M| against log N at N = q^4 .. q^12.

    S_M = sum_{n<M} f(u_n) along the fixed point.  The expected slope for
    mean-zero f is alpha = log_q |theta_j|; bounded sums fit slope ~ 0,
    consistent with |theta_j| <= 1.
    """
    import numpy as np

    q = constant_length(z)
    if q is None:
        raise ValueError("growth fit requires a constant-length substitution")
    vec = _coefficient_vector(z, f)
    if not np.any(vec):
        raise ValueError("f must be nonzero")
    letter, power = seed_letter(z)
    u = fixed_point_prefix(z, letter, power, q**_GROWTH_EXPONENTS[-1])
    running = np.maximum.accumulate(np.abs(np.cumsum(vec[u])))
    lengths = [q**n for n in _GROWTH_EXPONENTS]
    maxima = [float(running[N - 1]) for N in lengths]
    if any(v == 0.0 for v in maxima):
        raise ValueError("partial sums vanish identically on a q-adic prefix")
    log_n = np.log(lengths)
    log_s = np.log(maxima)
    A = np.stack([log_n, np.ones_like(log_n)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(A, log_s, rcond=None)
    residual = float(np.sqrt(np.mean((A @ np.array([slope, intercept]) - log_s) ** 2)))
    return BirkhoffGrowth(float(slope), residual, tuple(lengths), tuple(maxima))


def expected_zero_coefficient(z: Substitution, f: Sequence) -> float:
    """Exact sum_a |b_a|^2 mu[a], the limit of sigma_hat_f(0)."""
    vec = _coefficient_vector(z, f)
    mu = letter_frequencies(z)
    return float(sum(abs(vec[a]) ** 2 * float(mu[a]) for a in range(z.size)))


def mean_under_frequencies(z: Substitution, f: Sequence) -> complex:
    """Exact mean sum_a b_a mu[a] of a cylindrical function."""
    vec = _coefficient_vector(z, f)
    mu = letter_frequencies(z)
    return complex(sum(vec[a] * float(mu[a]) for a in range(z.size)))
