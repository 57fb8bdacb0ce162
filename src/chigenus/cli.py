"""Command-line surface: chi tables, Schur generators, certificates, and
corpus sign audits, in line-stable text or canonical JSON.

Exit codes: 0 success/certified, 1 infeasible or failed audit, 2 usage or
malformed input.  JSON output is a single line with sorted keys and exact
'a/b' rationals, so repeated runs are byte-identical.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Sequence

from . import ASSUMPTION_TAGS, SIGN_MODES, __version__

# The mathematics is imported by each command when it runs, so a command
# loads only the modules it uses and --version or --help loads none.
if TYPE_CHECKING:
    from .cone import Certificate
    from .symchern import BasisConvention
    from .varieties import SignAudit, VarietyDescriptor

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
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8
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
    """The one dimension gate: `subject` is a --dim value (an int), refused
    outside low..max_dim, or a variety descriptor, refused above max_dim.
    Returns the dimension."""
    if isinstance(subject, int):
        if not low <= subject <= max_dim:
            raise ValueError(f"--dim must be within {low}..{max_dim}")
        return subject
    if subject.dimension > max_dim:
        raise ValueError(f"descriptor {subject.name()} exceeds maximum dimension {max_dim}")
    return subject.dimension


def _decimal(text: str) -> int:
    # numeric flags take the grammar of token fields
    from .poly import parse_decimal

    try:
        return parse_decimal(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _emit_json(command: str, dimension: int, convention: str, payload: dict) -> None:
    import json

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
    for i, tag in enumerate(tags):
        if tag not in OPTIONAL_ASSUMPTIONS:
            raise ValueError(
                f"unknown assumption {tag!r} (use {', '.join(OPTIONAL_ASSUMPTIONS)})"
            )
        if tag in tags[:i]:
            raise ValueError(f"assumption {tag!r} given twice")
    return tags


# -- chi ---------------------------------------------------------------------


def _cmd_chi(args) -> int:
    from .hrr import chi_table
    from .symchern import BasisConvention

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
    from .poly import partitions_of
    from .symchern import parse_partition, partition_label, schur

    n = _within_limit(args.max_dim, args.dim)
    if args.partition is not None:
        parts = [parse_partition(args.partition, n)]
    else:
        parts = list(partitions_of(n))
    rows = [(partition_label(a), schur(a, n)) for a in parts]
    if args.json:
        payload = {
            "generators": [
                {"name": name, "poly": poly.poly_json_dict()} for name, poly in rows
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


def _render_certificate_text(cert: Certificate) -> list[str]:
    lines = ["status = certified"]
    for name, coef in cert.named_coefficients():
        lines.append(f"  {coef} * {name}")
    lines.append("residual = 0")  # no residual; the line keeps the format
    return lines


def _cmd_certify(args) -> int:
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
            "target": target.poly_json_dict(),
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
    from .varieties import Surface, check_signs, descriptor_from_token, load_corpus

    mode = _parse_mode(args.mode)
    if args.target == "surface":
        if args.c1sq is None or args.c2 is None:
            raise ValueError("surface check needs --c1sq and --c2")
        descriptors = [Surface(args.c1sq, args.c2)]
    elif args.c1sq is not None or args.c2 is not None:
        raise ValueError("--c1sq and --c2 apply only to the 'surface' target")
    elif os.path.exists(args.target):
        descriptors = [entry.descriptor for entry in load_corpus(args.target)]
        if not descriptors:
            raise ValueError(f"corpus {args.target} holds no entries")
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
    from .hrr import euler_functional
    from .symchern import BasisConvention
    from .varieties import chern_numbers, chi_values, descriptor_from_token, evaluate

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
    "--c1sq": (_decimal, None),
    "--c2": (_decimal, None),
}
SHARED_FLAGS = "--json --max-dim"  # every command takes these first

# command -> (handler, its other flags, the required ones, positional)
COMMANDS = {
    "chi": (_cmd_chi, "--dim --convention", "--dim", ""),
    "schur": (_cmd_schur, "--dim --partition", "--dim", ""),
    "certify": (_cmd_certify, "--dim --mode --target --assume --all-p", "--dim", ""),
    "check": (_cmd_check, "--mode --c1sq --c2", "", "target"),
    "variety eval": (_cmd_variety_eval, "--target", "", "descriptor"),
}

HELP = f"""
Exact chi^p genus polynomials, Schur positivity generators and rational cone
certificates for Chern-number sign theorems.  A flag takes its value as
--flag VALUE or --flag=VALUE.  --mode is {' or '.join(MODE_NAMES)} (default
{MODE_NAMES[0]}), --assume a comma list of {','.join(OPTIONAL_ASSUMPTIONS)}, --partition
e.g. 2,1, --target chi:p, euler or (certify only) an inline weight-n
polynomial, and check's target a builtin token (pn:3, curve:2, ...),
'surface' or a corpus path.
"""


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
    """The parsed command line, or the text that --help or --version prints.
    A value flag takes the next token verbatim, even one that starts with
    '-'; every refusal is a ValueError."""
    if argv[:1] == ["--version"]:
        return f"chigenus {__version__}\n"
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
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if isinstance(args, str):  # --help or --version
            sys.stdout.write(args)
            return EXIT_OK
        args.max_dim = _resolve_max_dim(args.max_dim)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:  # console-script entry point
    try:
        code = main()
    finally:
        # the process ends here: the OS reclaims the heap, so the collector
        # need not walk every module object at shutdown
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
