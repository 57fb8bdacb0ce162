"""Command-line surface: chi tables, Schur generators, certificates, and
corpus sign audits, in line-stable text or canonical JSON.

Exit codes: 0 success/certified, 1 infeasible or failed audit, 2 usage or
malformed input.  JSON output is a single line with sorted keys and exact
'a/b' rationals, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from . import __version__
from .cone import ASSUMPTION_TAGS, Certificate, certify, certify_chi_signs, generators
from .hrr import (
    SIGN_MODES,
    chi_p,
    chi_sign,
    chi_table,
    euler_functional,
    mode_convention,
    signed_target,
    top_part,
)
from .poly import GradedPoly, ParseError, parse_decimal
from .symchern import (
    BasisConvention,
    parse_partition,
    partition_label,
    partitions_of,
    schur,
)
from .varieties import (
    Surface,
    SignAudit,
    VarietyDescriptor,
    check_signs,
    chern_numbers,
    chi_values,
    descriptor_from_token,
    evaluate,
    load_corpus,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

CONFIG_ENV = "CHIGENUS_CONFIG"

# The only dimension limit: `main` resolves it (config, then --max-dim) and
# every command passes its dimension through `_within_limit` before calling
# the library, which applies no limit of its own.
DEFAULT_MAX_DIM = 8

MODE_NAMES = tuple(mode.replace("_", "-") for mode in SIGN_MODES)
# "schur" is always on; --assume adds the opt-in inequality generators
OPTIONAL_ASSUMPTIONS = tuple(tag for tag in ASSUMPTION_TAGS if tag != "schur")


def _load_config() -> dict:
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError(f"config {path!r} must hold a JSON object")
    for key in config:
        if key != "max_dim":
            raise ValueError(f"unknown config key {key!r} (the only key is 'max_dim')")
    return config


def _resolve_max_dim(flag: int | None) -> int:
    # the config is checked even when --max-dim overrides it
    value = _load_config().get("max_dim", DEFAULT_MAX_DIM)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError("config key 'max_dim' must be a non-negative integer")
    if flag is not None and flag < 0:
        raise ValueError("--max-dim must be a non-negative integer")
    return value if flag is None else flag


def _within_limit(max_dim: int, subject: int | VarietyDescriptor, low: int = 0) -> int:
    """The one dimension gate: `subject` is a --dim value, refused outside
    low..max_dim, or a descriptor, refused above max_dim.  Returns the
    dimension."""
    if isinstance(subject, VarietyDescriptor):
        if subject.dimension > max_dim:
            raise ValueError(f"descriptor {subject.name()} exceeds maximum dimension {max_dim}")
        return subject.dimension
    if not low <= subject <= max_dim:
        raise ValueError(f"--dim must be within {low}..{max_dim}")
    return subject


def _decimal(text: str) -> int:
    # numeric flags take the grammar of token fields, refused in argparse's words
    try:
        return parse_decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _emit_json(command: str, dimension: int, convention: str, payload: dict) -> None:
    envelope = {
        "command": command,
        "convention": convention,
        "dimension": dimension,
        "payload": payload,
        "toolVersion": __version__,
    }
    sys.stdout.write(json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n")


def _parse_mode(text: str) -> str:
    mode = text.replace("-", "_")
    if mode not in SIGN_MODES:
        raise ValueError(f"unknown mode {text!r} (use {' or '.join(MODE_NAMES)})")
    return mode


def _parse_assumptions(text: str | None) -> tuple[str, ...]:
    if not text:
        return ()
    tags = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    for tag in tags:
        if tag not in OPTIONAL_ASSUMPTIONS:
            raise ValueError(
                f"unknown assumption {tag!r} (use {', '.join(OPTIONAL_ASSUMPTIONS)})"
            )
    return tags


# -- chi ---------------------------------------------------------------------


def _cmd_chi(args) -> int:
    n = _within_limit(args.max_dim, args.dim)
    convention = BasisConvention(args.convention)
    table = chi_table(n)
    if convention == BasisConvention.TANGENT:
        table = table.flipped()
    if args.json:
        _emit_json("chi", n, convention.value, table.to_json_dict())
        return EXIT_OK
    print(f"chi table (dim {n}, {convention.value})")
    for p, row in enumerate(table.rows):
        print(f"chi^{p} = {row.to_text()}")
    return EXIT_OK


# -- schur -------------------------------------------------------------------


def _cmd_schur(args) -> int:
    n = _within_limit(args.max_dim, args.dim)
    if args.partition is not None:
        parts = [parse_partition(args.partition, n)]
    else:
        parts = list(partitions_of(n))
    rows = [(partition_label(a), schur(a, n)) for a in parts]
    if args.json:
        payload = {
            "generators": [
                {"name": name, "poly": poly.to_json_dict()} for name, poly in rows
            ]
        }
        _emit_json("schur", n, "any", payload)
        return EXIT_OK
    if args.partition is None:
        print(f"schur generators (dim {n})")
    for name, poly in rows:
        print(f"{name} = {poly.to_text()}")
    return EXIT_OK


# -- certify -----------------------------------------------------------------


def _parse_chi_target(spec: str, n: int) -> int:
    """The form degree p of a 'chi:p' target, within 0..n."""
    try:
        p = parse_decimal(spec[len("chi:") :])
    except ValueError as exc:
        raise ValueError(f"bad chi target {spec!r}") from exc
    if not 0 <= p <= n:
        raise ValueError(f"chi target p={p} outside 0..{n}")
    return p


def _parse_target(args, n: int, mode: str, convention: BasisConvention):
    spec = args.target
    if spec.startswith("chi:"):
        p = _parse_chi_target(spec, n)
        functional, sign = chi_p(n, p), chi_sign(n, p, mode)
    elif spec == "euler":
        # e = sum_p (-1)^p chi^p, so it carries the sign of chi^0
        functional, sign = euler_functional(n), chi_sign(n, 0, mode)
    else:
        try:
            poly = GradedPoly.from_text(n, spec)
        except ParseError as exc:
            raise ValueError(f"bad target polynomial: {exc}") from exc
        if poly.graded_part(n) != poly:
            raise ValueError("inline target must be homogeneous of top weight")
        return top_part(poly, convention), 1, 1
    target, scale = signed_target(functional, sign, mode)
    return target, sign, scale


def _render_certificate_text(cert: Certificate) -> list[str]:
    lines = ["status = certified"]
    for name, coef in cert.named_coefficients():
        lines.append(f"  {coef} * {name}")
    lines.append(f"residual = {cert.residual.to_text()}")
    return lines


def _cmd_certify(args) -> int:
    n = _within_limit(args.max_dim, args.dim, low=1)
    mode = _parse_mode(args.mode)
    convention = mode_convention(mode)
    tags = ("schur",) + _parse_assumptions(args.assume)
    if args.all_p:
        report = certify_chi_signs(n, mode, tags)
        if args.json:
            _emit_json("certify", n, convention.value, report.to_json_dict())
        else:
            print(
                f"chi sign report (dim {n}, mode {mode}, "
                f"assume {','.join(report.assumptions)})"
            )
            for row in report.rows:
                print(f"p={row.p} scale={row.scale} {row.status}")
            print(f"verdict: {'certified' if report.all_certified else 'open'}")
        return EXIT_OK if report.all_certified else EXIT_NEGATIVE

    gens = generators(n, tags, convention)
    target, sign, scale = _parse_target(args, n, mode, convention)
    result = certify(target, gens)
    certified = isinstance(result, Certificate)
    if args.json:
        payload = {
            "assumptions": list(tags),
            "mode": mode,
            "scale": scale,
            "sign": sign,
            "status": "certified" if certified else "infeasible",
            "target": target.as_poly().to_json_dict(),
        }
        if certified:
            payload["certificate"] = result.to_json_dict()
        else:
            payload["infeasibility"] = result.to_json_dict()
        _emit_json("certify", n, convention.value, payload)
    else:
        print(f"certify (dim {n}, {convention.value})")
        print(f"target = {target.to_text()} (sign {sign}, scale {scale})")
        if certified:
            for line in _render_certificate_text(result):
                print(line)
        else:
            print("status = infeasible")
            print(f"witness = {result.witness.to_text()}")
    return EXIT_OK if certified else EXIT_NEGATIVE


# -- check -------------------------------------------------------------------


def _audit_text(audit: SignAudit) -> list[str]:
    lines = [f"sign audit: {audit.variety} (dim {audit.dimension}, mode {audit.mode})"]
    for row in audit.rows:
        verdict = "ok" if row.ok else "FAIL"
        lines.append(
            f"p={row.p} chi={row.value} signed={row.signed_value} {verdict}"
        )
    lines.append(f"euler = {audit.euler}")
    lines.append(f"verdict: {'pass' if audit.passed else 'fail'}")
    return lines


def _cmd_check(args) -> int:
    mode = _parse_mode(args.mode)
    if args.target == "surface":
        if args.c1sq is None or args.c2 is None:
            raise ValueError("surface check needs --c1sq and --c2")
        descriptors = [Surface(args.c1sq, args.c2)]
    elif args.c1sq is not None or args.c2 is not None:
        raise ValueError("--c1sq and --c2 apply only to the 'surface' target")
    elif os.path.exists(args.target):
        descriptors = [entry.descriptor for entry in load_corpus(args.target)]
    else:
        descriptors = [descriptor_from_token(args.target)]
    audits: list[SignAudit] = []
    for descriptor in descriptors:
        _within_limit(args.max_dim, descriptor)
        audits.append(check_signs(descriptor, mode))
    passed = all(a.passed for a in audits)
    if args.json:
        payload = {"audits": [a.to_json_dict() for a in audits], "pass": passed}
        dim = audits[0].dimension if len(audits) == 1 else 0
        _emit_json("check", dim, "cotangent", payload)
    else:
        for audit in audits:
            for line in _audit_text(audit):
                print(line)
    return EXIT_OK if passed else EXIT_NEGATIVE


# -- variety -----------------------------------------------------------------


def _cmd_variety_eval(args) -> int:
    descriptor = descriptor_from_token(args.descriptor)
    n = _within_limit(args.max_dim, descriptor)
    numbers = chern_numbers(descriptor, BasisConvention.COTANGENT)
    values = chi_values(numbers)
    euler = evaluate(euler_functional(n), numbers)
    if args.target is not None:
        if args.target.startswith("chi:"):
            p = _parse_chi_target(args.target, n)
            value = values[p]
            label = f"chi^{p}"
        elif args.target == "euler":
            value = euler
            label = "euler"
        else:
            raise ValueError(f"unknown eval target {args.target!r}")
        if args.json:
            payload = {
                "descriptor": descriptor.to_json_dict(),
                "target": label,
                "value": str(value),
            }
            _emit_json("variety-eval", n, "cotangent", payload)
        else:
            print(f"{label} = {value}")
        return EXIT_OK
    if args.json:
        payload = {
            "chi": [str(v) for v in values],
            "descriptor": descriptor.to_json_dict(),
            "euler": str(euler),
        }
        _emit_json("variety-eval", n, "cotangent", payload)
    else:
        print(f"variety {descriptor.name()} (dim {n})")
        for p, value in enumerate(values):
            print(f"chi^{p} = {value}")
        print(f"euler = {euler}")
    return EXIT_OK


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chigenus",
        description=(
            "Exact chi^p genus polynomials, Schur positivity generators, and "
            "rational cone certificates for Chern-number sign theorems."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # flags that several commands share, each declared once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true")
    common.add_argument("--max-dim", type=_decimal, default=None)
    sized = argparse.ArgumentParser(add_help=False)
    sized.add_argument("--dim", type=_decimal, required=True)
    moded = argparse.ArgumentParser(add_help=False)
    moded.add_argument("--mode", default="nef-cotangent", help=" or ".join(MODE_NAMES))

    chi = sub.add_parser("chi", parents=[common, sized], help="print the chi^p polynomial table")
    chi.add_argument(
        "--convention", choices=["tangent", "cotangent"], default="cotangent"
    )
    chi.set_defaults(func=_cmd_chi)

    schur_cmd = sub.add_parser(
        "schur", parents=[common, sized], help="print Schur positivity generators"
    )
    schur_cmd.add_argument("--partition", default=None, help="e.g. 2,1")
    schur_cmd.set_defaults(func=_cmd_schur)

    cert = sub.add_parser(
        "certify", parents=[common, sized, moded], help="search/verify a positivity certificate"
    )
    cert.add_argument(
        "--target",
        default=None,
        help="chi:p, euler, or an inline weight-n polynomial",
    )
    cert.add_argument(
        "--assume", default=None, help=f"comma list of {','.join(OPTIONAL_ASSUMPTIONS)}"
    )
    cert.add_argument("--all-p", action="store_true", help="run every chi^p row")
    cert.set_defaults(func=_cmd_certify)

    check = sub.add_parser(
        "check", parents=[common, moded], help="sign audit of a variety or corpus file"
    )
    check.add_argument(
        "target", help="builtin token (pn:3, curve:2, ...), 'surface', or corpus path"
    )
    check.add_argument("--c1sq", type=_decimal, default=None)
    check.add_argument("--c2", type=_decimal, default=None)
    check.set_defaults(func=_cmd_check)

    variety = sub.add_parser("variety", help="variety computations")
    variety_sub = variety.add_subparsers(dest="variety_command", required=True)
    veval = variety_sub.add_parser(
        "eval", parents=[common], help="evaluate chi^p values of a variety"
    )
    veval.add_argument("descriptor", help="builtin token, e.g. pn:3 or curve:2")
    veval.add_argument("--target", default=None, help="chi:p or euler")
    veval.set_defaults(func=_cmd_variety_eval)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "certify" and not args.all_p and args.target is None:
        parser.error("certify needs --target or --all-p")
    try:
        args.max_dim = _resolve_max_dim(args.max_dim)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    run()
