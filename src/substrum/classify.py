"""End-to-end spectral classification pipeline.

Produces a three-valued verdict with an evidence trail:

* PurelyDiscrete -- the pure base has a coincidence (Dekking: the diagonal
  is the only ergodic class of the bi-substitution);
* Singular -- certified absence of a substitution-matrix eigenvalue of
  modulus sqrt(q) (applied to S_z directly: passing to the pure base can
  only change eigenvalues by zeros and roots of unity, and sqrt(q) is
  neither), optionally reinforced by a certified |theta_2| < sqrt(q);
* Inconclusive -- a sqrt(q)-modulus eigenvalue is present (the criterion is
  sufficient for singularity, not necessary, so nothing follows), or a
  precondition failed.

Both eigenvalue decisions are exact, or rest on certified enclosures that
are refined until they decide, so no verdict depends on a precision setting.

Precondition failures keep the verdict three-valued: they are reported as
reason "PreconditionFailed(<tag>)" under Inconclusive rather than as a
fourth verdict, and carry enough detail for callers (the CLI maps them to
a dedicated exit code).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .coincidence import _ergodic_classes, bijectivity_profile
from .core import Substitution, constant_length, is_aperiodic_pansiot, is_primitive, substitution_matrix
from .eigen import char_poly, has_modulus_sqrt_q, second_eigenvalue_below_sqrt_q
from .reduction import _compute_height, _pure_base

__all__ = ["SpectralVerdict", "classify"]

PURELY_DISCRETE = "PurelyDiscrete"
SINGULAR = "Singular"
INCONCLUSIVE = "Inconclusive"

SUFFICIENCY_NOTE = "the sqrt(q) eigenvalue criterion is sufficient for singularity, but not necessary"


@dataclass(frozen=True)
class SpectralVerdict:
    """Classification outcome with its reasons and supporting evidence.

    reasons uses the fixed vocabulary DekkingCoincidence, NoSqrtQEigenvalue,
    SecondEigenvalueSmall, SqrtQPresent, and PreconditionFailed(<tag>).
    evidence is a plain dict of domain objects (see report for
    serialization); eigenvalue_group describes the group of topological
    eigenvalues e(Z(q) x Z/hZ) by the pair (q, h), available whenever the
    pipeline got far enough to compute the height.
    """

    verdict: str
    reasons: tuple[str, ...]
    detail: str
    evidence: dict = field(compare=False)
    eigenvalue_group: Optional[tuple[int, int]]

    def precondition_failed(self) -> bool:
        return any(r.startswith("PreconditionFailed") for r in self.reasons)


def _failed(tag: str, detail: str, evidence: dict) -> SpectralVerdict:
    return SpectralVerdict(
        verdict=INCONCLUSIVE,
        reasons=(f"PreconditionFailed({tag})",),
        detail=detail,
        evidence=evidence,
        eigenvalue_group=None,
    )


def classify(z: Substitution) -> SpectralVerdict:
    """Run the full pipeline on a substitution.

    Stages: constant length, primitivity, aperiodicity, height + pure base,
    Dekking coincidence on the pure base, then the exact sqrt(q) eigenvalue
    test on S_z.  All mathematical outcomes are encoded in the verdict; only
    resource exhaustion raises.
    """
    evidence: dict = {"alphabet_size": z.size}

    q = constant_length(z)
    if q is None:
        return _failed(
            "not-constant-length",
            "images have different lengths; this pipeline handles constant-length substitutions only",
            evidence,
        )
    evidence["q"] = q

    prim = is_primitive(z)
    evidence["primitive"] = prim.primitive
    if not prim.primitive:
        return _failed(
            "not-primitive",
            "the substitution matrix has no entrywise-positive power",
            evidence,
        )

    aper = is_aperiodic_pansiot(z)
    evidence["aperiodic"] = aper.aperiodic
    if aper.aperiodic is False:
        return _failed(
            "periodic",
            f"the substitution generates a shift-periodic sequence ({aper.reason})",
            evidence,
        )
    if aper.aperiodic is None:
        return _failed(
            "pansiot-precondition",
            f"aperiodicity undecided: {aper.reason}; refusing to classify rather than guess",
            evidence,
        )

    # primitivity is checked once, above; the pure base of a primitive
    # substitution is primitive
    height = _compute_height(z, q)
    base = _pure_base(z, height.h)
    classification = _ergodic_classes(base.eta)
    evidence["height"] = height
    evidence["h"] = base.height
    evidence["pure_base_size"] = base.eta.size
    evidence["pure_base"] = base
    evidence["classification"] = classification
    evidence["k"] = classification.k
    evidence["class_sizes"] = tuple(len(c) for c in classification.classes)
    evidence["transitive_size"] = len(classification.transitive)
    evidence["bijective"] = bijectivity_profile(z)
    group = (q, base.height)

    # Dekking's criterion on the pure base, which has height 1 by construction
    if classification.k == 1:
        return SpectralVerdict(
            verdict=PURELY_DISCRETE,
            reasons=("DekkingCoincidence",),
            detail=(
                "the pure base has a coincidence: the diagonal is the only ergodic class "
                "of its bi-substitution, so the spectrum is purely discrete (Dekking)"
            ),
            evidence=evidence,
            eigenvalue_group=group,
        )

    # one spectral record serves both tests and analysis_report's eigenvalues
    evidence["char_poly"] = p = char_poly(substitution_matrix(z))
    sqrt_q = has_modulus_sqrt_q(p, q)
    evidence["sqrt_q"] = sqrt_q

    if sqrt_q.present:
        return SpectralVerdict(
            verdict=INCONCLUSIVE,
            reasons=("SqrtQPresent",),
            detail=(
                f"an eigenvalue of modulus sqrt({q}) is present ({sqrt_q.detail}); "
                + SUFFICIENCY_NOTE
            ),
            evidence=evidence,
            eigenvalue_group=group,
        )

    reasons = ["NoSqrtQEigenvalue"]
    detail = "no eigenvalue of the substitution matrix has modulus sqrt(q), hence the spectrum is singular"
    if second_eigenvalue_below_sqrt_q(p, q):
        reasons.append("SecondEigenvalueSmall")
        detail += "; moreover the second-largest eigenvalue modulus is certified below sqrt(q)"
    return SpectralVerdict(
        verdict=SINGULAR,
        reasons=tuple(reasons),
        detail=detail,
        evidence=evidence,
        eigenvalue_group=group,
    )
