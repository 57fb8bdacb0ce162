"""Command-line surface: chi tables, Schur generators, certificates, and
corpus sign audits, in line-stable text or canonical JSON.

Exit codes: 0 success/certified, 1 infeasible or failed audit, 2 usage,
malformed input or output that cannot be written.  JSON output is a single
line with sorted keys and exact 'a/b' rationals, written by
`poly.json_text`, so repeated runs are byte-identical.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Sequence

from . import ASSUMPTION_TAGS, MAX_DIM, SIGN_MODES, __version__

# The mathematics is imported by each command when it runs, so a command
# loads only the modules it uses and --version or --help loads none.
if TYPE_CHECKING:
    from .poly import BasisConvention
    from .varieties import SignAudit

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

CONFIG_ENV = "CHIGENUS_CONFIG"

# The only dimension limit: `main` resolves it (config, then --max-dim, at
# most `MAX_DIM`).  `_within_limit` gates only --dim; `varieties` refuses a
# token or a corpus line above it, or one whose products nest as deep.
DEFAULT_MAX_DIM = 8

MODE_NAMES = tuple(mode.replace("_", "-") for mode in SIGN_MODES)
# "schur" is always on; --assume adds the opt-in inequality generators
OPTIONAL_ASSUMPTIONS = tuple(tag for tag in ASSUMPTION_TAGS if tag != "schur")


def _load_config() -> dict:
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    from .poly import parse_json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = parse_json(handle.read())
    except (OSError, ValueError) as exc:  # bad JSON, a repeated key or not UTF-8
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
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value <= MAX_DIM:
        raise ValueError(f"config key 'max_dim' must be an integer within 0..{MAX_DIM}")
    if flag is not None and not 0 <= flag <= MAX_DIM:
        raise ValueError(f"--max-dim must be an integer within 0..{MAX_DIM}")
    return value if flag is None else flag


def _within_limit(max_dim: int, dim: int, low: int = 0) -> int:
    """A --dim value, refused outside low..max_dim."""
    if not low <= dim <= max_dim:
        raise ValueError(f"--dim must be within {low}..{max_dim}")
    return dim


def _decimal(text: str) -> int:
    # numeric flags take the grammar of token fields
    from .poly import parse_decimal

    try:
        return parse_decimal(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _envelope(command: str, dimension: int, convention: str, payload) -> str:
    """The one JSON line of a --json command; the payload is a dict or a
    record, as `poly.json_text` writes it."""
    from .poly import json_text

    envelope = {
        "command": command,
        "convention": convention,
        "dimension": dimension,
        "payload": payload,
        "toolVersion": __version__,
    }
    return json_text(envelope)


def _parse_mode(text: str) -> str:
    mode = text.replace("-", "_")
    if mode not in SIGN_MODES:
        raise ValueError(f"unknown mode {text!r} (use {' or '.join(MODE_NAMES)})")
    return mode


def _parse_assumptions(text: str | None) -> tuple[str, ...]:
    if not text:
        return ()
    tags = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    for i, tag in enumerate(tags):
        if tag not in OPTIONAL_ASSUMPTIONS:
            raise ValueError(
                f"unknown assumption {tag!r} (use {', '.join(OPTIONAL_ASSUMPTIONS)})"
            )
        if tag in tags[:i]:
            raise ValueError(f"assumption {tag!r} given twice")
    return tags


# -- chi ---------------------------------------------------------------------


def _cmd_chi(args) -> tuple[int, str]:
    from .hrr import chi_table
    from .poly import BasisConvention

    n = _within_limit(args.max_dim, args.dim)
    convention = BasisConvention(args.convention)
    table = chi_table(n)
    if convention == BasisConvention.TANGENT:
        table = table.flipped()
    if args.json:
        return EXIT_OK, _envelope("chi", n, convention.value, table)
    lines = [f"chi table (dim {n}, {convention.value})"]
    lines += (f"chi^{p} = {row.to_text()}" for p, row in enumerate(table.rows))
    return EXIT_OK, "\n".join(lines)


# -- schur -------------------------------------------------------------------


def _cmd_schur(args) -> tuple[int, str]:
    from .poly import partitions_of
    from .symchern import _schur_rows, parse_partition, partition_label

    n = _within_limit(args.max_dim, args.dim)
    parts = partitions_of(n) if args.partition is None else [parse_partition(args.partition, n)]
    rows = [(partition_label(a), f) for a, f in _schur_rows(parts, n).items()]
    if args.json:
        payload = {"generators": [{"name": name, "poly": poly} for name, poly in rows]}
        return EXIT_OK, _envelope("schur", n, "any", payload)
    lines = [f"schur generators (dim {n})"] if args.partition is None else []
    lines += (f"{name} = {poly.to_text()}" for name, poly in rows)
    return EXIT_OK, "\n".join(lines)


# -- certify -----------------------------------------------------------------


def _parse_chi_target(spec: str, n: int) -> int:
    """The form degree p of a 'chi:p' target, within 0..n."""
    from .poly import parse_decimal

    try:
        p = parse_decimal(spec[len("chi:") :])
    except ValueError as exc:
        raise ValueError(f"bad chi target {spec!r}") from exc
    if not 0 <= p <= n:
        raise ValueError(f"chi target p={p} outside 0..{n}")
    return p


def _parse_target(args, n: int, mode: str, convention: BasisConvention):
    from .hrr import chi_p, chi_sign, euler_functional, signed_target
    from .poly import ChernFunctional, ParseError

    spec = args.target
    if spec.startswith("chi:"):
        p = _parse_chi_target(spec, n)
        functional, sign = chi_p(n, p), chi_sign(n, p, mode)
    elif spec == "euler":
        # e = sum_p (-1)^p chi^p, so it carries the sign of chi^0
        functional, sign = euler_functional(n), chi_sign(n, 0, mode)
    else:
        try:
            return ChernFunctional.from_text(n, convention, spec), 1, 1
        except ParseError as exc:
            raise ValueError(f"bad target polynomial: {exc}") from exc
        except ValueError:
            raise ValueError("inline target must be homogeneous of top weight") from None
    target, scale = signed_target(functional, sign, mode)
    return target, sign, scale


def _cmd_certify(args) -> tuple[int, str]:
    from .cone import Certificate, certify, certify_chi_signs, generators
    from .hrr import mode_convention

    if args.all_p and args.target is not None:
        raise ValueError("certify takes --target or --all-p, not both")
    if not args.all_p and args.target is None:
        raise ValueError("certify needs --target or --all-p")
    n = _within_limit(args.max_dim, args.dim, low=1)
    mode = _parse_mode(args.mode)
    convention = mode_convention(mode)
    tags = ("schur",) + _parse_assumptions(args.assume)
    if args.all_p:
        report = certify_chi_signs(n, mode, tags)
        code = EXIT_OK if report.all_certified else EXIT_NEGATIVE
        if args.json:
            return code, _envelope("certify", n, convention.value, report)
        assumed = ",".join(report.assumptions)
        lines = [f"chi sign report (dim {n}, mode {mode}, assume {assumed})"]
        lines += (f"p={row.p} scale={row.scale} {row.status}" for row in report.rows)
        lines.append(f"verdict: {'certified' if report.all_certified else 'open'}")
        return code, "\n".join(lines)

    gens = generators(n, tags, convention)
    target, sign, scale = _parse_target(args, n, mode, convention)
    result = certify(target, gens)
    certified = isinstance(result, Certificate)
    code = EXIT_OK if certified else EXIT_NEGATIVE
    if args.json:
        payload = {
            "assumptions": list(tags),
            "mode": mode,
            "scale": scale,
            "sign": sign,
            "status": "certified" if certified else "infeasible",
            "target": target,
            result.json_key: result,
        }
        return code, _envelope("certify", n, convention.value, payload)
    lines = [f"certify (dim {n}, {convention.value})"]
    lines.append(f"target = {target.to_text()} (sign {sign}, scale {scale})")
    if certified:
        lines.append("status = certified")
        for term in result._json_shape()["terms"]:  # the coefficients as JSON writes them
            lines.append(f"  {term['coef']} * {term['gen']}")
        lines.append("residual = 0")  # no residual; the line keeps the format
    else:
        lines += ["status = infeasible", f"witness = {result.witness.to_text()}"]
    return code, "\n".join(lines)


# -- check -------------------------------------------------------------------


def _audit_text(audit: SignAudit) -> list[str]:
    data = audit._json_shape()  # the numbers as JSON writes them
    lines = [f"sign audit: {audit.variety} (dim {audit.dimension}, mode {audit.mode})"]
    for row in data["rows"]:
        verdict = "ok" if row["ok"] else "FAIL"
        lines.append(f"p={row['p']} chi={row['chi']} signed={row['signed']} {verdict}")
    lines.append(f"euler = {data['euler']}")
    lines.append(f"verdict: {'pass' if audit.passed else 'fail'}")
    return lines


def _cmd_check(args) -> tuple[int, str]:
    from .varieties import check_signs, descriptor_from_token, load_corpus

    mode = _parse_mode(args.mode)
    # no token ends in .jsonl or holds a '/', so a missing corpus is an OSError
    if os.path.exists(args.target) or args.target.endswith(".jsonl") or "/" in args.target:
        descriptors = [entry.descriptor for entry in load_corpus(args.target, args.max_dim)]
        if not descriptors:
            raise ValueError(f"corpus {args.target} holds no entries")
    else:  # a corpus line or token above the limit is refused where it is read
        descriptors = [descriptor_from_token(args.target, args.max_dim)]
    audits = [check_signs(descriptor, mode) for descriptor in descriptors]
    passed = all(a.passed for a in audits)
    code = EXIT_OK if passed else EXIT_NEGATIVE
    if args.json:
        payload = {"audits": audits, "pass": passed}
        dim = audits[0].dimension if len(audits) == 1 else 0
        return code, _envelope("check", dim, "cotangent", payload)
    return code, "\n".join(line for audit in audits for line in _audit_text(audit))


# -- variety -----------------------------------------------------------------


def _cmd_variety_eval(args) -> tuple[int, str]:
    from .hrr import euler_number
    from .poly import rational_text
    from .varieties import descriptor_from_token

    descriptor = descriptor_from_token(args.descriptor, args.max_dim)
    n = descriptor.dimension
    p = None  # the target is parsed before any chi^p is computed
    if args.target not in (None, "euler"):
        if not args.target.startswith("chi:"):
            raise ValueError(f"unknown eval target {args.target!r}")
        p = _parse_chi_target(args.target, n)
    numerators, den = descriptor._chi_y()
    euler = euler_number(numerators)
    # every number is rendered before anything is printed
    if args.target is None:
        values = [rational_text(c, den) for c in numerators]
        payload = {"chi": values, "euler": rational_text(euler, den)}
        lines = [f"variety {descriptor.name()} (dim {n})"]
        lines += (f"chi^{p} = {value}" for p, value in enumerate(values))
        lines.append(f"euler = {payload['euler']}")
    else:
        value, label = (euler, "euler") if p is None else (numerators[p], f"chi^{p}")
        payload = {"target": label, "value": rational_text(value, den)}
        lines = [f"{label} = {payload['value']}"]
    if args.json:
        payload["descriptor"] = descriptor
        return EXIT_OK, _envelope("variety-eval", n, "cotangent", payload)
    return EXIT_OK, "\n".join(lines)


# -- parser ------------------------------------------------------------------

# Every flag, once: name -> (converter, default).  Its dest is the name
# without the dashes ("--max-dim" -> args.max_dim); a converter of None
# makes a switch and a tuple lists the accepted values.
FLAGS = {
    "--json": (None, False),
    "--max-dim": (_decimal, None),
    "--dim": (_decimal, None),
    "--convention": (("tangent", "cotangent"), "cotangent"),
    "--partition": (str, None),
    "--mode": (str, MODE_NAMES[0]),
    "--target": (str, None),
    "--assume": (str, None),
    "--all-p": (None, False),
}
SHARED_FLAGS = "--json --max-dim"  # every command takes these first

# command -> (handler, its other flags, the required ones, positional)
COMMANDS = {
    "chi": (_cmd_chi, "--dim --convention", "--dim", ""),
    "schur": (_cmd_schur, "--dim --partition", "--dim", ""),
    "certify": (_cmd_certify, "--dim --mode --target --assume --all-p", "--dim", ""),
    "check": (_cmd_check, "--mode", "", "target"),
    "variety eval": (_cmd_variety_eval, "--target", "", "descriptor"),
}

HELP = f"""
Exact chi^p genus polynomials, Schur positivity generators and rational cone
certificates for Chern-number sign theorems.  A flag takes its value as
--flag VALUE or --flag=VALUE.  --mode is {' or '.join(MODE_NAMES)} (default
{MODE_NAMES[0]}), --assume a comma list of {','.join(OPTIONAL_ASSUMPTIONS)}, --partition
e.g. 2,1, --target chi:p, euler or (certify only) an inline weight-n
polynomial, and check's target a builtin token (pn:3, curve:2, surface:9:3,
...) or a corpus path."""


def _help() -> str:
    lines = ["usage: chigenus [-h] [--version] COMMAND ..."]
    for command, (_, flags, required, positional) in COMMANDS.items():
        words = [f"       chigenus {command} [-h]"]
        for name in f"{SHARED_FLAGS} {flags}".split():
            convert = FLAGS[name][0]
            if isinstance(convert, tuple):
                name += " {" + ",".join(convert) + "}"
            elif convert is not None:
                name += " " + name[2:].replace("-", "_").upper()
            words.append(name if name.split()[0] in required.split() else f"[{name}]")
        lines.append(" ".join(words + positional.split()))
    return "\n".join(lines) + "\n" + HELP


def _parse(argv: Sequence[str]) -> SimpleNamespace | str:
    """The parsed command line, or the text of --help or --version.
    A value flag takes the next token verbatim, even one that starts with
    '-'; every refusal is a ValueError."""
    if argv[:1] == ["--version"]:
        return f"chigenus {__version__}"
    command = " ".join(argv[:2])
    if command not in COMMANDS:
        command = argv[0] if argv else ""
    if command in ("-h", "--help"):
        return _help()
    if command not in COMMANDS:
        known = f"(use {', '.join(COMMANDS)})"
        raise ValueError(
            f"unknown command {command!r} {known}" if argv else f"missing command {known}"
        )
    handler, flags, required, positional = COMMANDS[command]
    allowed = f"{SHARED_FLAGS} {flags}".split()
    given: dict = {}
    tokens = iter(argv[len(command.split()) :])
    for token in tokens:
        if token in ("-h", "--help"):
            return _help()
        if not token.startswith("-"):
            if not positional or positional in given:
                raise ValueError(f"unexpected argument {token!r} for {command}")
            given[positional] = token
            continue
        name, inline, value = token.partition("=")
        if name not in allowed:
            raise ValueError(f"unknown flag {name!r} for {command}")
        if name in given:
            raise ValueError(f"{name} given twice")
        convert = FLAGS[name][0]
        if convert is None:
            if inline:
                raise ValueError(f"{name} takes no value")
            given[name] = True
            continue
        if not inline:
            value = next(tokens, None)
            if value is None:
                raise ValueError(f"{name} needs a value")
        if isinstance(convert, tuple):
            if value not in convert:
                raise ValueError(f"{name}: invalid choice {value!r} (use {' or '.join(convert)})")
        else:
            try:
                value = convert(value)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
        given[name] = value
    for name in f"{required} {positional}".split():
        if name not in given:
            raise ValueError(f"{command} needs {name}")
    args = SimpleNamespace(func=handler)
    for name, (_, default) in FLAGS.items():
        setattr(args, name[2:].replace("-", "_"), given.get(name, default))
    if positional:
        setattr(args, positional, given[positional])
    return args


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line and write the whole text its command returns at
    once; a refusal or a failed write is one error line and exit 2."""
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if isinstance(args, str):  # --help or --version
            code, text = EXIT_OK, args
        else:
            args.max_dim = _resolve_max_dim(args.max_dim)
            code, text = args.func(args)
        print(text, flush=True)
        return code
    except (ValueError, OSError) as exc:
        try:
            print(f"error: {exc}", file=sys.stderr, flush=True)
        except OSError:  # stderr cannot be written either: the exit code tells
            pass
        return EXIT_USAGE


def run() -> None:  # console-script entry point
    """Run `main` and end the process at its last write.  Nothing runs after
    it: no `atexit` handler and no interpreter shutdown, whose second flush
    of a stream that failed in `main` would turn exit 2 into exit 120."""
    code = main()
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except OSError:  # `main` has reported it in one error line
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
