"""Command-line interface.

Exit codes: 0 success, 2 malformed input (unreadable file, DSL parse error,
bad flag values), 3 classifier precondition failure, 4 exhausted resource
budget.  stdout carries exactly one report (JSON, or the purebase
text form); everything else goes to stderr.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .classify import classify
from .coincidence import dekking_pure_discrete
from .core import (
    ParseError,
    ResourceBudgetError,
    Substitution,
    constant_length,
    parse_substitution,
    render_substitution,
    substitution_matrix,
)
from .eigen import char_poly, has_modulus_sqrt_q
from .reduction import pure_base
from .report import (
    SCHEMA_VERSION,
    _rules_payload,
    analysis_report,
    classify_report,
    render_json,
    spectrum_report,
    substitution_payload,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4


class _CliExit(Exception):
    def __init__(self, code: int):
        self.code = code


def _fail(code: int, message: str) -> "_CliExit":
    print(f"substrum: {message}", file=sys.stderr)
    return _CliExit(code)


def _load(path: str) -> Substitution:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise _fail(EXIT_USAGE, f"cannot read {path}: {exc}") from exc
    try:
        return parse_substitution(text)
    except ParseError as exc:
        raise _fail(EXIT_USAGE, f"parse error in {path}: {exc}") from exc


def _emit(payload: dict, args) -> None:
    sys.stdout.write(render_json(payload, pretty=args.pretty))


def _parse_function(text: str) -> list[Fraction]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise _fail(EXIT_USAGE, "--function needs at least one coefficient")
    try:
        return [Fraction(tok) for tok in tokens]
    except (ValueError, ZeroDivisionError) as exc:
        raise _fail(
            EXIT_USAGE, f"--function coefficients must be rationals like 1, -1/3, 0.25: {exc}"
        ) from exc


def _parse_scales(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    try:
        if sep:
            first, last = int(lo), int(hi)
        else:
            first = last = int(lo)
    except ValueError as exc:
        raise _fail(EXIT_USAGE, f"--scales wants n1..n2, got {text!r}") from exc
    if first < 1 or last < first:
        raise _fail(EXIT_USAGE, f"--scales wants 1 <= n1 <= n2, got {text!r}")
    return list(range(first, last + 1))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_analyze(args) -> int:
    z = _load(args.path)
    verdict = classify(z)
    _emit(analysis_report(z, verdict, path=args.path), args)
    return EXIT_PRECONDITION if verdict.precondition_failed() else EXIT_OK


def _cmd_classify(args) -> int:
    z = _load(args.path)
    verdict = classify(z)
    _emit(classify_report(z, verdict, path=args.path), args)
    return EXIT_PRECONDITION if verdict.precondition_failed() else EXIT_OK


def _cmd_purebase(args) -> int:
    z = _load(args.path)
    try:
        base = pure_base(z)
    except ValueError as exc:
        raise _fail(EXIT_PRECONDITION, f"purebase: {exc}") from exc
    eta_dsl = render_substitution(base.eta)
    if args.json or args.pretty:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "input": substitution_payload(z, args.path),
            "height": base.height,
            "phi": {token: list(word) for token, word in base.phi},
            "eta_rules": _rules_payload(base.eta),
            "eta_dsl": eta_dsl,
            "coincidence": dekking_pure_discrete(base.eta),
        }
        _emit(payload, args)
        return EXIT_OK
    # Text form: phi as a commented two-column table, then eta in the rule
    # DSL.  Comments are legal DSL, so the whole output re-parses as eta.
    lines = [f"# height: {base.height}", "# block letter | original word"]
    for token, word in base.phi:
        lines.append(f"# {token} | {' '.join(word)}")
    sys.stdout.write("\n".join(lines) + "\n" + eta_dsl)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    z = _load(args.path)
    p = char_poly(substitution_matrix(z))
    q = constant_length(z)
    sqrt_q = None if q is None else has_modulus_sqrt_q(p, q)
    _emit(spectrum_report(z, p, sqrt_q, path=args.path), args)
    return EXIT_OK


def _cmd_estimate_dim(args) -> int:
    # the estimator is imported here, not at module level, so that the exact
    # commands never load it
    from .estimator import DEFAULT_LAGS, DEFAULT_PREFIX, _fit_function, _function_weights, dimension_fit

    if args.lags is None:
        args.lags = DEFAULT_LAGS
    if args.prefix is None:
        args.prefix = DEFAULT_PREFIX
    z = _load(args.path)
    f = _parse_function(args.function)
    scales = _parse_scales(args.scales) if args.scales else None
    for flag, value, least in (("--prefix", args.prefix, 1), ("--lags", args.lags, 0)):
        if value < least:
            raise _fail(EXIT_USAGE, f"{flag} must be >= {least}, got {value}")
    try:
        f = _fit_function(f)
        _function_weights(z, f, args.prefix)
    except ValueError as exc:
        raise _fail(EXIT_USAGE, f"--function {args.function!r}: {exc}") from exc
    try:
        est = dimension_fit(z, f, scales=scales, K=args.lags, L=args.prefix)
    except ValueError as exc:
        raise _fail(EXIT_BUDGET, f"estimate-dim: {exc}") from exc

    out_path = Path(args.out) if args.out else Path(Path(args.path).stem + "-dimension.csv")
    rows = ["r,mass,corrected_mass"]
    for r, mass, corr in zip(est.radii, est.masses, est.corrected_masses):
        rows.append(f"{r!r},{mass!r},{corr!r}")
    try:
        out_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    except OSError as exc:
        raise _fail(EXIT_USAGE, f"cannot write {out_path}: {exc}") from exc

    payload = {
        "schema_version": SCHEMA_VERSION,
        "input": substitution_payload(z, args.path),
        "function": [str(x) for x in f],
        "d_hat": est.d_hat,
        "d_pred": est.d_pred,
        "residual": est.residual,
        "kappa": est.kappa,
        "j": est.j,
        "theta_modulus": est.theta_modulus,
        "prediction": est.prediction,
        "scales": list(est.scales),
        "lags": args.lags,
        "prefix": args.prefix,
        "csv": str(out_path),
    }
    _emit(payload, args)
    return EXIT_OK


def _cmd_examples(args) -> int:
    from .corpus import write_corpus

    directory = Path(args.directory)
    try:
        written = write_corpus(directory)
    except OSError as exc:
        raise _fail(EXIT_USAGE, f"cannot write {directory}: {exc}") from exc
    payload = {
        "schema_version": SCHEMA_VERSION,
        "directory": str(directory),
        "written": written,
    }
    _emit(payload, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="compact JSON report (default)")
    fmt.add_argument("--pretty", action="store_true", help="indented JSON report")


def _add_estimator_flags(p: argparse.ArgumentParser) -> None:
    # None stands for the estimator's defaults, which _cmd_estimate_dim fills in
    p.add_argument("--lags", type=int, default=None, help="correlation lags K")
    p.add_argument("--prefix", type=int, default=None, help="fixed-point prefix length L")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="substrum",
        description="Spectral classification of constant-length substitutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full static report: matrix, eigenvalues, height, classes, verdict")
    p.add_argument("path", help="substitution rule file")
    _add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("classify", help="verdict and evidence summary")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("purebase", help="height, blocking map, and pure-base substitution")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(func=_cmd_purebase)

    p = sub.add_parser("spectrum", help="characteristic polynomial and certified eigenvalue enclosures")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser(
        "estimate-dim",
        help="estimate the local dimension of a spectral measure at 0",
    )
    p.add_argument("path")
    p.add_argument(
        "--function",
        required=True,
        help='cylindrical coefficient vector, e.g. "1 -1 0 0" (rationals allowed)',
    )
    p.add_argument("--scales", default=None, help="radius exponents n1..n2 (r = q^-n)")
    p.add_argument("--out", default=None, help="CSV output path (default <input>-dimension.csv)")
    _add_common(p)
    _add_estimator_flags(p)
    p.set_defaults(func=_cmd_estimate_dim)

    p = sub.add_parser("examples", help="write the bundled example corpus and its manifest")
    p.add_argument(
        "directory",
        nargs="?",
        default="substrum-examples",
        help="output directory (default: substrum-examples)",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliExit as exc:
        return exc.code
    except ResourceBudgetError as exc:
        print(f"substrum: budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
