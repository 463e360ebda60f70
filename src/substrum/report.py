"""JSON report construction.

Reports are plain dicts built in a fixed insertion order and rendered with
json.dumps (which preserves that order), so identical inputs produce
byte-identical output — the golden-file tests rely on this.  No timestamps,
no environment echoes.  Complex numbers are serialized as
{re, im, modulus_lo, modulus_hi}; the modulus bounds are certified
enclosures where the producer has them (eigenvalue records) and collapse to
the point value otherwise.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from .coincidence import ErgodicClassification, _ergodic_classes
from .core import Substitution, constant_length, substitution_matrix
from .eigen import CharPoly, char_poly, eigenvalue_multiset
from .reduction import compute_height

__all__ = [
    "SCHEMA_VERSION",
    "analysis_report",
    "classify_report",
    "complex_quad",
    "render_json",
    "spectrum_report",
    "substitution_payload",
    "verdict_payload",
]

SCHEMA_VERSION = 1


def complex_quad(value: complex, lo: Optional[float] = None, hi: Optional[float] = None) -> dict:
    """{re, im, modulus_lo, modulus_hi} for one complex number."""
    value = complex(value)
    if lo is None or hi is None:
        mod = abs(value)
        lo = mod if lo is None else lo
        hi = mod if hi is None else hi
    return {
        "re": float(value.real),
        "im": float(value.imag),
        "modulus_lo": float(lo),
        "modulus_hi": float(hi),
    }


def _eigenvalue_payload(p: CharPoly) -> list[dict]:
    """Flattened multiset: one quad per eigenvalue, repeated by multiplicity."""
    return [
        complex_quad(rec.value, float(rec.modulus_lo), float(rec.modulus_hi))
        for cls in p.classes
        for rec in eigenvalue_multiset(cls)
    ]


def substitution_payload(z: Substitution, path: Optional[str] = None) -> dict:
    rules = {
        z.alphabet.token(a): [z.alphabet.token(b) for b in img]
        for a, img in enumerate(z.images)
    }
    return {
        "path": path,
        "alphabet": list(z.alphabet.letters),
        "rules": rules,
        "hash": z.hash_key(),
    }


def _pure_base_payload(base) -> dict:
    eta = base.eta
    return {
        "height": base.height,
        "alphabet": list(eta.alphabet.letters),
        "rules": {
            eta.alphabet.token(a): [eta.alphabet.token(b) for b in img]
            for a, img in enumerate(eta.images)
        },
        "blocks": {token: list(word) for token, word in base.phi},
    }


def _classes_payload(cls: ErgodicClassification, z: Substitution) -> dict:
    tok = z.alphabet.token
    return {
        "k": cls.k,
        "classes": [[[tok(a), tok(b)] for a, b in c] for c in cls.classes],
        "transitive": [[tok(a), tok(b)] for a, b in cls.transitive],
        "stabilizing_power": cls.stabilizing_power,
    }


def _sqrt_q_payload(res, q: int) -> dict:
    # the test is exact, so every witness has modulus exactly sqrt(q)
    root = math.sqrt(q)
    return {
        "present": res.present,
        "witnesses": [complex_quad(w, root, root) for w in res.witnesses],
        "exact_witnesses": True,
        "detail": res.detail,
    }


def verdict_payload(verdict) -> dict:
    group = verdict.eigenvalue_group
    return {
        "verdict": verdict.verdict,
        "reasons": list(verdict.reasons),
        "detail": verdict.detail,
        "eigenvalue_group": None if group is None else {"q": group[0], "h": group[1]},
    }


def _evidence_payload(z: Substitution, verdict) -> dict:
    ev = verdict.evidence
    out = {
        "alphabet_size": ev.get("alphabet_size"),
        "q": ev.get("q"),
        "primitive": ev.get("primitive"),
        "aperiodic": ev.get("aperiodic"),
        "h": ev.get("h"),
        "pure_base_size": ev.get("pure_base_size"),
        "k": ev.get("k"),
        "class_sizes": list(ev["class_sizes"]) if "class_sizes" in ev else None,
        "transitive_size": ev.get("transitive_size"),
        "bijective": ev.get("bijective"),
    }
    if "sqrt_q" in ev:
        out["sqrt_q"] = _sqrt_q_payload(ev["sqrt_q"], ev["q"])
    else:
        out["sqrt_q"] = None
    return out


def analysis_report(
    z: Substitution,
    verdict,
    path: Optional[str] = None,
    estimator: Optional[dict] = None,
) -> dict:
    """Full static report: input echo, matrix, char poly, eigenvalues, height,
    pure base, classes, evidence, verdict.  Fields the pipeline could not
    reach (precondition failures) are null rather than omitted, so the
    schema is stable across all inputs."""
    S = substitution_matrix(z)
    ev = verdict.evidence

    # classify's spectral record, with whatever it already holds, unless
    # classify stopped before it (a failed precondition or a Dekking verdict)
    p = ev.get("char_poly") or char_poly(S)

    # classify's height, and its classes of the pure base, which is z at height 1
    height = ev.get("height")
    if height is None and ev.get("primitive") and constant_length(z) is not None:
        height = compute_height(z)
    height_payload = None if height is None else {"g0": height.g0, "h": height.h}

    classes_payload = None
    if ev.get("k") is not None:
        classes_payload = _classes_payload(ev["classification"] if ev["h"] == 1 else _ergodic_classes(z), z)

    report = {
        "schema_version": SCHEMA_VERSION,
        "input": substitution_payload(z, path),
        "matrix": [list(row) for row in S.entries],
        "char_poly": list(p.coeffs),
        "eigenvalues": _eigenvalue_payload(p),
        "height": height_payload,
        "pure_base": _pure_base_payload(ev["pure_base"]) if "pure_base" in ev else None,
        "classes": classes_payload,
        "evidence": _evidence_payload(z, verdict),
        "verdict": verdict_payload(verdict),
    }
    if estimator is not None:
        report["estimator"] = estimator
    return report


def classify_report(z: Substitution, verdict, path: Optional[str] = None) -> dict:
    """Compact report: verdict plus the evidence summary, no matrix echo."""
    return {
        "schema_version": SCHEMA_VERSION,
        "input": substitution_payload(z, path),
        "evidence": _evidence_payload(z, verdict),
        "verdict": verdict_payload(verdict),
    }


def spectrum_report(z: Substitution, p: CharPoly, sqrt_q_result, path: Optional[str] = None) -> dict:
    """Eigenvalue-centric report from the spectral record p of z's matrix:
    char poly, irreducible factors, certified eigenvalue enclosures, and the
    modulus-sqrt(q) test."""
    q = constant_length(z)
    return {
        "schema_version": SCHEMA_VERSION,
        "input": substitution_payload(z, path),
        "matrix": [list(row) for row in substitution_matrix(z).entries],
        "char_poly": list(p.coeffs),
        "factors": [list(fac) for fac, _mult in p.factors],
        "eigenvalues": _eigenvalue_payload(p),
        "sqrt_q": None if sqrt_q_result is None or q is None else _sqrt_q_payload(sqrt_q_result, q),
    }


def render_json(payload: dict, pretty: bool = False) -> str:
    if pretty:
        return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":")) + "\n"
