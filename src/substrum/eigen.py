"""Exact eigenvalue analysis of integer matrices.

The classification criterion at the heart of this package is a statement
about eigenvalue *moduli*: a primitive aperiodic constant-length-q
substitution whose matrix has no eigenvalue of absolute value exactly
sqrt(q) defines a system with singular spectrum.  A floating-point
eigensolver cannot distinguish |lambda| = sqrt(q) from |lambda| ~ sqrt(q),
so this module works exactly:

* characteristic polynomials are exact integer polynomials;
* eigenvalues are grouped by irreducible factor over Z, with rigorous
  rational enclosures of each root's modulus (rational and quadratic roots
  get closed forms; higher-degree factors use certified isolating
  rectangles), each at most 2^-128 wide;
* eigenvalues are then grouped into modulus classes, the connected
  components of the overlapping modulus enclosures.  The descending order
  of the classes is certified, since consecutive classes have disjoint
  enclosures.  Equal modulus inside a class is not: it means that the
  128-bit enclosures overlap, which is not a proof (ROADMAP.md, item 2,
  plans a root-separation bound that would decide it exactly);
* the sqrt(q) test is exact at every factor degree.  A root with
  |lambda|^2 = q has conj(lambda) = q/lambda, so it is +-sqrt(q) or a root
  of a q-reciprocal factor F(x) = x^d T(x + q/x); the roots of such an F on
  the circle |x|^2 = q are the pairs (s +- i sqrt(4q - s^2))/2 over the real
  roots s of T with s^2 < 4q, which a Sturm chain counts with its signs
  evaluated exactly in Q(sqrt(q)).  An exact gcd prefilter comes first:
  lambda and q/lambda are roots of the same characteristic polynomial, so
  gcd(p(x), x^n p(q/x)) constant rules the modulus out at once;
* the |theta_2| < sqrt(q) test counts the roots of modulus at least
  sqrt(q): exactly for q-reciprocal factors (one root of each off-circle
  pair (x, q/x) lies outside), and for every other factor from certified
  enclosures, refined until each clears sqrt(q), which it must, since no
  root of such a factor lies on the circle.

Every spectral query here reads one `CharPoly`, the record of a matrix's
spectral data: its factorization, root data and modulus classes are each
computed on first use, once per record, so a caller that keeps the record
(`classify` stores it in its evidence) shares them with later consumers.
The exact algebra comes from `exactlin`, in plain integers; sympy is
imported only to isolate the roots of factors of degree >= 3, on first use.

The elimination data (j, pr, kappa) of a rational vector b — the index of
the first eigenvalue class that sees b, the projection of b onto that class,
and the depth of the deepest Jordan chain it touches — is computed from
integer matrix-vector products alone, with no projector matrix: for a
factor F^e of char, the cofactor char / F^e applied to b is nonzero
exactly when F sees b, and F(M^t) acts on F's generalized eigenspace as an
invertible multiple of the nilpotent part, so Jordan depth is the number of
times F(M^t) can be applied before that vector vanishes.  The projection
comes from one integer Bezout identity for the whole class, and is
certified by checking that its two parts lie in the two complementary
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import comb, gcd, lcm
from math import sqrt as _fsqrt
from typing import Optional, Sequence

from .core import IntMatrix
from .exactlin import (
    _derivative,
    char_poly_coeffs,
    factor_integer_poly,
    poly_divmod,
    poly_gcd,
    poly_gcdex,
    poly_mul,
    sqrt_interval,
)

__all__ = [
    "CharPoly",
    "EigenvalueRecord",
    "SqrtQResult",
    "JPRKappa",
    "char_poly",
    "eigenvalues",
    "eigenvalue_classes",
    "has_modulus_sqrt_q",
    "second_eigenvalue_below_sqrt_q",
    "j_pr_kappa",
]

# precision of root enclosures: their width is at most 2^-_PRECISION_BITS
_PRECISION_BITS = 128


@dataclass(frozen=True)
class EigenvalueRecord:
    """One eigenvalue with a certified modulus enclosure.

    `value` is an approximation for display (exact when the root is
    rational); `modulus_lo <= |value| <= modulus_hi` is rigorous, and
    `modulus_sq_exact` is set when |value|^2 is known exactly as a rational
    (rational roots, sqrt-type quadratics, complex quadratic pairs).  Two
    records share a modulus class when their enclosures are linked by a
    chain of overlaps; that orders the classes rigorously, but is not a
    proof that the moduli inside one class are equal.
    """

    value: complex
    multiplicity: int
    factor: tuple[int, ...]
    modulus_lo: Fraction
    modulus_hi: Fraction
    modulus_sq_exact: Optional[Fraction]
    is_real: bool
    rational_value: Optional[Fraction] = None


def _abs_interval(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return Fraction(0), max(-lo, hi)


def _rect_modulus_interval(x1, x2, y1, y2, bits):
    """Enclose |z| for z in the rectangle [x1,x2] x [y1,y2] (rational corners)."""
    ax_lo, ax_hi = _abs_interval(x1, x2)
    ay_lo, ay_hi = _abs_interval(y1, y2)
    lo_sq = ax_lo * ax_lo + ay_lo * ay_lo
    hi_sq = ax_hi * ax_hi + ay_hi * ay_hi
    return sqrt_interval(lo_sq, bits)[0], sqrt_interval(hi_sq, bits)[1]


def _rational(r) -> Fraction:
    return Fraction(int(r.p), int(r.q))


def _roots_of_factor(factor: tuple[int, ...], bits: int) -> list[dict]:
    """Certified root data for a monic irreducible integer polynomial.

    Returns one dict per root with keys matching the EigenvalueRecord root
    fields: value, modulus_lo, modulus_hi, modulus_sq_exact, is_real,
    rational_value.
    """
    deg = len(factor) - 1
    if deg == 1:
        r = -factor[1]
        fr = Fraction(r)
        return [
            dict(
                value=complex(r),
                modulus_lo=abs(fr),
                modulus_hi=abs(fr),
                modulus_sq_exact=fr * fr,
                is_real=True,
                rational_value=fr,
            )
        ]
    if deg == 2:
        b, c = factor[1], factor[2]
        D = b * b - 4 * c
        if D == 0:
            raise RuntimeError(f"irreducible quadratic {factor} has a double root")
        if D < 0:
            # complex conjugate pair; |root|^2 = c exactly
            mod_lo, mod_hi = sqrt_interval(Fraction(c), bits)
            re = -b / 2.0
            im = _fsqrt(-D) / 2.0
            base = dict(
                modulus_lo=mod_lo,
                modulus_hi=mod_hi,
                modulus_sq_exact=Fraction(c),
                is_real=False,
                rational_value=None,
            )
            return [
                dict(value=complex(re, im), **base),
                dict(value=complex(re, -im), **base),
            ]
        # two real quadratic irrationals (-b +- sqrt(D)) / 2
        s_lo, s_hi = sqrt_interval(Fraction(D), bits)
        out = []
        for sign in (+1, -1):
            lo = (Fraction(-b) + (s_lo if sign > 0 else -s_hi)) / 2
            hi = (Fraction(-b) + (s_hi if sign > 0 else -s_lo)) / 2
            mlo, mhi = _abs_interval(lo, hi)
            out.append(
                dict(
                    value=complex((-b + sign * _fsqrt(D)) / 2.0),
                    modulus_lo=mlo,
                    modulus_hi=mhi,
                    # |root|^2 is rational only for the x^2 - c shape
                    modulus_sq_exact=abs(Fraction(c)) if b == 0 else None,
                    is_real=True,
                    rational_value=None,
                )
            )
        return out

    # degree >= 3: certified isolating intervals/rectangles.  sympy is
    # imported here, on first use: nothing else needs it, and its import
    # costs more than the rest of a command-line call.
    import sympy

    poly = sympy.Poly([int(c) for c in factor], sympy.Symbol("x"), domain="ZZ")
    eps = sympy.Rational(1, 2**bits)
    real_iv, cplx_iv = poly.intervals(all=True, eps=eps)
    out = []
    for _interval, mult in real_iv + cplx_iv:
        if mult != 1:
            raise RuntimeError(f"irreducible factor {factor} has a repeated root")
    for (lo, hi), _mult in real_iv:
        flo, fhi = _rational(lo), _rational(hi)
        mlo, mhi = _abs_interval(flo, fhi)
        out.append(
            dict(
                value=complex(float((flo + fhi) / 2)),
                modulus_lo=mlo,
                modulus_hi=mhi,
                modulus_sq_exact=None,
                is_real=True,
                rational_value=None,
            )
        )
    for (c1, c2), _mult in cplx_iv:
        fx1, fy1 = _rational(sympy.re(c1)), _rational(sympy.im(c1))
        fx2, fy2 = _rational(sympy.re(c2)), _rational(sympy.im(c2))
        mlo, mhi = _rect_modulus_interval(fx1, fx2, fy1, fy2, bits)
        out.append(
            dict(
                value=complex(float((fx1 + fx2) / 2), float((fy1 + fy2) / 2)),
                modulus_lo=mlo,
                modulus_hi=mhi,
                modulus_sq_exact=None,
                is_real=False,
                rational_value=None,
            )
        )
    if len(out) != deg:
        raise RuntimeError(f"isolated {len(out)} roots of the degree-{deg} factor {factor}")
    return out


def _group_by_modulus(records: list[EigenvalueRecord]) -> tuple[tuple[EigenvalueRecord, ...], ...]:
    """Partition records into descending modulus classes in one sweep.

    In order of descending modulus_hi, a record opens a new class when its
    modulus_hi lies below the least modulus_lo of the current class, and
    joins that class otherwise.  The classes are then the connected
    components of the overlapping enclosures (touching endpoints overlap),
    so consecutive classes are disjoint and in certified order.  Exact
    values of |lambda|^2 are integers, and two different ones below 2^250
    cannot have overlapping 128-bit enclosures, so a class that holds two
    of them is an error.
    """
    classes: list[list[EigenvalueRecord]] = []
    for r in sorted(records, key=lambda r: r.modulus_hi, reverse=True):
        if classes and r.modulus_hi >= floor:
            classes[-1].append(r)
            floor = min(floor, r.modulus_lo)
        else:
            classes.append([r])
            floor = r.modulus_lo
    for cls in classes:
        if len({r.modulus_sq_exact for r in cls} - {None}) > 1:
            raise RuntimeError(f"different exact moduli share one class: {cls}")
        cls.sort(key=lambda r: (-r.value.real, -r.value.imag))
    return tuple(tuple(cls) for cls in classes)


@dataclass(frozen=True)
class CharPoly:
    """The spectral record of an integer matrix: its monic characteristic
    polynomial, leading coefficient first, and what follows from it.

    `coeffs` is given.  The rest is computed on first use, at most once per
    record, so consumers that share a record share the work: `factors`, the
    irreducible factorization over Z as [(factor, multiplicity), ...];
    `roots(fac)`, one factor's root data at _PRECISION_BITS; and `classes`,
    the descending modulus classes of all the roots.
    """

    coeffs: tuple[int, ...]
    _root_data: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, value):
        acc = 0
        for c in self.coeffs:
            acc = acc * value + c
        return acc

    @cached_property
    def factors(self) -> list[tuple[tuple[int, ...], int]]:
        return factor_integer_poly(self.coeffs)

    def roots(self, fac: tuple[int, ...]) -> list[dict]:
        """Root data of the irreducible factor fac (see `_roots_of_factor`)."""
        if fac not in self._root_data:
            self._root_data[fac] = _roots_of_factor(fac, _PRECISION_BITS)
        return self._root_data[fac]

    @cached_property
    def classes(self) -> tuple[tuple[EigenvalueRecord, ...], ...]:
        """Eigenvalues in descending-modulus classes: their order is
        certified, equal modulus inside a class is not (`_group_by_modulus`)."""
        return _group_by_modulus(
            [
                EigenvalueRecord(multiplicity=mult, factor=fac, **root)
                for fac, mult in self.factors
                for root in self.roots(fac)
            ]
        )


def char_poly(M: IntMatrix) -> CharPoly:
    """The spectral record of M, from the exact characteristic polynomial det(xI - M)."""
    return CharPoly(char_poly_coeffs(M))


def eigenvalue_classes(M: IntMatrix) -> tuple[tuple[EigenvalueRecord, ...], ...]:
    """Eigenvalues of M grouped into descending-modulus classes (`CharPoly.classes`)."""
    return char_poly(M).classes


def eigenvalues(M: IntMatrix) -> tuple[EigenvalueRecord, ...]:
    """All eigenvalues of M, sorted by certified descending modulus.

    Ties inside a modulus class are ordered by descending real part, then
    descending imaginary part.  Multiplicities are carried on the records;
    see `eigenvalue_multiset` for the flattened list.
    """
    return tuple(r for cls in char_poly(M).classes for r in cls)


def eigenvalue_multiset(records: Sequence[EigenvalueRecord]) -> list[EigenvalueRecord]:
    """Flatten records into the multiset (each record repeated by multiplicity)."""
    out: list[EigenvalueRecord] = []
    for r in records:
        out.extend([r] * r.multiplicity)
    return out


# ---------------------------------------------------------------------------
# sqrt(q) modulus detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SqrtQResult:
    """Outcome of the |lambda| = sqrt(q) test, which is always exact.

    witnesses are display values of the distinct roots of modulus sqrt(q),
    factor by factor.
    """

    present: bool
    witnesses: tuple[complex, ...]
    detail: str


def _reversal_poly(coeffs: Sequence[int], q: int) -> tuple[int, ...]:
    """Integer coefficients of x^n * p(q/x), leading coefficient first."""
    n = len(coeffs) - 1
    rev = [coeffs[n - t] * q**t for t in range(n + 1)]
    while len(rev) > 1 and rev[0] == 0:
        rev.pop(0)
    return tuple(rev)


def _trace_poly(fac: tuple[int, ...], q: int) -> Optional[tuple[int, ...]]:
    """The monic T with fac(x) = x^d T(x + q/x), or None if there is none.

    T exists exactly when fac has even degree 2d and is q-reciprocal,
    x^{2d} fac(q/x) = q^d fac(x).  It is peeled off from the top: the
    coefficient of x^{d+k} left over fixes the coefficient of s^k in T,
    since x^{d-k} (x^2 + q)^k is monic of degree d + k.  A nonzero
    remainder below x^d means fac is not q-reciprocal.
    """
    n = len(fac) - 1
    if n % 2:
        return None
    d = n // 2
    rem = list(fac)  # rem[i] is the coefficient of x^(n - i)
    T = []
    for k in range(d, -1, -1):
        t = rem[d - k]
        T.append(t)
        for j in range(k + 1):
            rem[d + k - 2 * j] -= t * comb(k, j) * q ** (k - j)
    return None if any(rem) else tuple(T)


def _sign_at(p: Sequence, v: Fraction, q: int) -> int:
    """Sign of the polynomial p at v sqrt(q), from p(v sqrt(q)) = a + b sqrt(q)
    by Horner's scheme in Q(sqrt(q)): a^2 against q b^2 when signs differ."""
    a = b = 0
    for c in p:
        a, b = b * v * q + c, a * v
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    gap = a * a - q * b * b
    return sa if gap > 0 else sb if gap < 0 else 0


def _band_roots(T: tuple[int, ...], q: int) -> list[float]:
    """Display values of the real roots s of an irreducible T with s^2 < 4q.

    Each gives a pair of roots (s +- i sqrt(4q - s^2))/2 of modulus sqrt(q)
    of x^d T(x + q/x).  A linear T has the exact root -T[1].  Otherwise the
    Sturm chain of T counts its roots in (a, b] by the sign variations at a
    and b.  The band (-2 sqrt(q), 2 sqrt(q)) is bisected at points v sqrt(q)
    with dyadic v, where every sign is exact, until each root is isolated,
    and then until its interval is 2^-60 sqrt(q) wide.  T is irreducible and
    fac is not x^2 - q, so T has no root at +-2 sqrt(q).
    """
    if len(T) == 2:
        return [-T[1]] if T[1] * T[1] < 4 * q else []
    chain = [T, _derivative(T)]
    while rem := poly_divmod(chain[-2], chain[-1])[1]:
        chain.append(tuple(-c for c in rem))

    def variations(v):
        signs = [sg for sg in (_sign_at(p, v, q) for p in chain) if sg]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    roots = []
    pending = [(Fraction(-2), Fraction(2))]
    while pending:
        lo, hi = pending.pop()
        count = variations(lo) - variations(hi)
        if count > 1:
            mid = (lo + hi) / 2
            pending += [(mid, hi), (lo, mid)]
        elif count == 1:
            while hi - lo > Fraction(1, 2**60):
                mid = (lo + hi) / 2
                lo, hi = (lo, mid) if variations(lo) != variations(mid) else (mid, hi)
            roots.append(float((lo + hi) / 2) * _fsqrt(q))
    return roots


def _circle_roots(fac: tuple[int, ...], q: int) -> tuple[complex, ...]:
    """Display values of the roots of modulus sqrt(q) of a monic irreducible
    integer polynomial, decided exactly.

    conj(x) = q/x on the circle |x|^2 = q, and conj(x) is a root of fac
    with x, so fac is x -+ sqrt(q) or x^2 - q (real roots), or
    q-reciprocal (every other case); otherwise it has no root there.
    """
    if len(fac) == 2 and fac[1] * fac[1] == q:
        return (complex(-fac[1]),)
    if fac == (1, 0, -q):
        return (complex(_fsqrt(q)), complex(-_fsqrt(q)))
    T = _trace_poly(fac, q)
    if T is None:
        return ()
    out = []
    for s in _band_roots(T, q):
        re, im = s / 2.0, _fsqrt(max(4 * q - s * s, 0)) / 2.0
        out += [complex(re, im), complex(re, -im)]
    return tuple(out)


def has_modulus_sqrt_q(M: IntMatrix, q: int) -> SqrtQResult:
    """Decide exactly whether M has an eigenvalue of absolute value sqrt(q).

    Exact prefilter: an eigenvalue lambda with |lambda|^2 = q satisfies
    conj(lambda) = q/lambda, and conj(lambda) is a root of the (real)
    characteristic polynomial p, so lambda is a common root of p(x) and the
    integer polynomial x^n p(q/x).  A constant gcd therefore excludes the
    modulus with no numerics.  Otherwise each irreducible factor of the gcd
    is examined exactly (see `_circle_roots`).
    """
    return _has_modulus_sqrt_q(char_poly(M), q)


def _has_modulus_sqrt_q(p: CharPoly, q: int) -> SqrtQResult:
    """has_modulus_sqrt_q from the record of char(M).

    The irreducible factors of the gcd are the factors of char(M) that
    divide it, in the same order as in `p.factors`.
    """
    g = poly_gcd(p.coeffs, _reversal_poly(p.coeffs, q))
    if len(g) == 1:
        return SqrtQResult(False, (), "gcd prefilter is constant: no (lambda, q/lambda) root pairs exist")
    witnesses = tuple(
        w for fac, _mult in p.factors if not poly_divmod(g, fac)[1] for w in _circle_roots(fac, q)
    )
    if witnesses:
        return SqrtQResult(True, witnesses, "exact factor analysis of the gcd prefilter")
    return SqrtQResult(False, (), "all candidate roots of the gcd prefilter excluded exactly")


def second_eigenvalue_below_sqrt_q(M: IntMatrix, q: int) -> bool:
    """True iff |theta_2| < sqrt(q), decided exactly.

    theta_2 is the second entry of the descending-modulus eigenvalue multiset
    (multiplicities counted), so |theta_2| < sqrt(q) iff at most one root,
    counted with multiplicity, has modulus at least sqrt(q).
    """
    return _second_eigenvalue_below_sqrt_q(char_poly(M), q)


def _second_eigenvalue_below_sqrt_q(p: CharPoly, q: int) -> bool:
    """second_eigenvalue_below_sqrt_q from the record of char(M).

    A q-reciprocal factor of degree 2d with 2c roots on the circle has
    exactly d + c roots of modulus >= sqrt(q): its other roots pair up as
    (x, q/x).  Every other factor has |x|^2 = q only at x = +-sqrt(q),
    where its modulus is exact, and is otherwise compared to sqrt(q) by
    enclosures: first the record's own root data, which `p.classes` reuses,
    then at doubling precision while one straddles sqrt(q).
    """
    count = 0
    for fac, mult in p.factors:
        T = _trace_poly(fac, q)
        if T is not None:
            count += mult * (len(T) - 1 + len(_band_roots(T, q)))
        else:
            bits, data = _PRECISION_BITS, p.roots(fac)
            while None in (outside := [_outside_sqrt_q(r, q) for r in data]):
                bits *= 2
                data = _roots_of_factor(fac, bits)
            count += mult * sum(outside)
        if count > 1:
            return False
    return True


def _outside_sqrt_q(root: dict, q: int) -> Optional[bool]:
    """Whether |root|^2 >= q, or None while its enclosure straddles sqrt(q)."""
    if root["modulus_sq_exact"] is not None:
        return root["modulus_sq_exact"] >= q
    if root["modulus_lo"] ** 2 > q:
        return True
    if root["modulus_hi"] ** 2 < q:
        return False
    return None


# ---------------------------------------------------------------------------
# Exact elimination data
# ---------------------------------------------------------------------------

def _power(fac: tuple[int, ...], e: int) -> tuple[int, ...]:
    out = (1,)
    for _ in range(e):
        out = poly_mul(out, fac)
    return out


@dataclass(frozen=True)
class JPRKappa:
    """Elimination data of a rational vector b with respect to M^t.

    j: 1-based index (in the descending-modulus eigenvalue multiset) of the
    first eigenvalue whose generalized eigenspace sees b.  pr_b: projection
    of b onto the full modulus class of that eigenvalue.  kappa: depth of
    the deepest Jordan chain of the class that b touches (1 when the class
    acts semisimply on b).
    """

    j: int
    theta: complex
    theta_modulus_lo: Fraction
    theta_modulus_hi: Fraction
    pr_b: tuple[Fraction, ...]
    kappa: int


def _poly_times_vector(coeffs: Sequence[int], rows, v: Sequence[int]) -> list[int]:
    """coeffs(A)·v for the integer matrix A with the given rows, by Horner's
    scheme on the vector: deg·m² integer products and no matrix product."""
    acc = [0] * len(v)
    for c in coeffs:
        acc = [sum(a * x for a, x in zip(row, acc)) + c * y for row, y in zip(rows, v)]
    return acc


def _cofactor(coeffs, G) -> tuple:
    """char / G, which must divide exactly."""
    H, rem = poly_divmod(coeffs, G)
    if rem:
        raise RuntimeError(f"{G} does not divide the characteristic polynomial")
    return H


def _jordan_depth(fac, e: int, rows, w: list[int]) -> int:
    """How many times fac(A) applies to w before it vanishes, at most e."""
    depth = 0
    while any(w):
        depth += 1
        if depth > e:
            raise RuntimeError(f"Jordan depth of factor {fac} exceeds its multiplicity {e}")
        w = _poly_times_vector(fac, rows, w)
    return depth


def j_pr_kappa(M: IntMatrix, b: Sequence) -> JPRKappa:
    """Exact elimination data (j, pr(b), kappa) for a nonzero rational vector b.

    Only integer matrix-vector products with A = M^t are used, on the
    integer vector n = d·b (d the common denominator of b).  For a factor
    F^e of char(M), H_F = char / F^e kills every generalized eigenspace but
    F's and is invertible on F's, so w_F = H_F(A)·n is nonzero exactly when
    F sees b (for rational b one Galois-conjugate root of F sees b iff they
    all do), and kappa_F, the number of times F(A) applies before w_F
    vanishes, is the depth of the Jordan chain of F that b touches.  j is
    the first position, in the descending-modulus multiset, of a root whose
    factor sees b, and kappa is the largest kappa_F over the factors with a
    root in that modulus class.

    pr(b) is E(A)·n / (D·d) for G = prod F^e over the class's factors and
    H = char / G.  The integer Bezout identity s·G + t·H = r, with r a
    nonzero constant, gives the idempotent E / D = (t·H mod char) / r,
    reduced to lowest terms with D > 0.  It is certified exactly:
    G(A)·p = 0 and H(A)·(D·n - p) = 0 for p = E(A)·n, and
    Q^m = ker G(A) + ker H(A) is a direct sum, so p is D times the
    projection of n onto ker G(A).
    """
    bvec = tuple(Fraction(v) for v in b)
    if all(v == 0 for v in bvec):
        raise ValueError("b must be nonzero")
    d = lcm(*(v.denominator for v in bvec))
    n = [int(v * d) for v in bvec]
    rows = M.transpose().entries
    p = char_poly(M)
    coeffs = p.coeffs
    mult = dict(p.factors)
    seen: dict[tuple[int, ...], list[int]] = {}  # factor -> w_F, computed on first use

    def w(fac):
        if fac not in seen:
            seen[fac] = _poly_times_vector(_cofactor(coeffs, _power(fac, mult[fac])), rows, n)
        return seen[fac]

    pos = 0
    for cls in p.classes:
        chosen = None
        for rec in cls:
            if chosen is None and any(w(rec.factor)):
                chosen, j = rec, pos + 1
            pos += rec.multiplicity
        if chosen is None:
            continue
        class_factors = tuple(dict.fromkeys(rec.factor for rec in cls))
        kappa = max(_jordan_depth(fac, mult[fac], rows, w(fac)) for fac in class_factors)
        G = (1,)
        for fac in class_factors:
            G = poly_mul(G, _power(fac, mult[fac]))
        H = _cofactor(coeffs, G)
        _s, t, r = poly_gcdex(G, H)
        if len(r) != 1:
            raise RuntimeError(f"the factors {class_factors} are not coprime to their complement")
        E = poly_divmod(poly_mul(t, H), coeffs)[1]
        g = gcd(*r, *E) if r[0] > 0 else -gcd(*r, *E)
        E, D = [c // g for c in E], r[0] // g
        p = _poly_times_vector(E, rows, n)
        if any(_poly_times_vector(G, rows, p)) or any(
            _poly_times_vector(H, rows, [D * x - y for x, y in zip(n, p)])
        ):
            raise RuntimeError(f"the projection of b onto the factors {class_factors} fails its certificate")
        return JPRKappa(
            j=j,
            theta=chosen.value,
            theta_modulus_lo=chosen.modulus_lo,
            theta_modulus_hi=chosen.modulus_hi,
            pr_b=tuple(Fraction(x, D * d) for x in p),
            kappa=kappa,
        )
    raise RuntimeError("b is nonzero, so some factor of the characteristic polynomial must see it")
