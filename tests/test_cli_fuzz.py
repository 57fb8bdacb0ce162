"""Property test of the error contract of `cli.main` on arbitrary input.

Whatever the tokens, corpus lines (with misspelt fields and top-level keys,
names that are not strings, an `expected` that is not an object,
conventions, dimensions above the limit and integers past the digit
limit), polynomial text, numeric flag values (`--max-dim` among them)
or shape of the command line (either flag value form, values that start
with '-', unknown or repeated flags, no command), `main`
returns 0, 1 or 2 without raising; exit 2 comes with exactly one `error:`
line on stderr and nothing on stdout, and exit 1 only with an
"infeasible", "open" or failed-audit verdict on stdout.  Dimensions
within the limit stay small, and larger ones are refused before anything of
their size is built, so every example runs in milliseconds.

A second property test draws accepted `--json` command lines at n <= 6
(`chi`, `schur`, inline and `--all-p` `certify`, `check` on a generated
corpus, `variety eval`) with the op builders of `bench/workloads.py`, and
passes each stdout to the verifier of its kind in `bench/check.py`, which
re-checks it with its own `Fraction` code and imports no chigenus module:
exit 1 must come exactly with an infeasible target, an open report or a
failed audit.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chigenus import SIGN_MODES
from chigenus.cli import main

SMALL = st.integers(-2, 6)
# recipe kind -> the fields its descriptor JSON needs ("bogus" is no kind)
RECIPES = {
    "pn": ("n",),
    "curve": ("genus",),
    "abelian": ("n",),
    "surface": ("c1sq", "c2"),
    "hypersurface": ("degree", "ambient"),
    "product": ("left", "right"),
    "explicit": ("n", "values", "convention"),
    "bogus": (),
}
# every field name, and misspellings that no descriptor type has
FIELDS = sorted({field for fields in RECIPES.values() for field in fields}) + [
    "conventon",
    "value",
    "genus_",
]
# a corpus line's keys, misspellings of them and a key `check` never reads
CORPUS_KEYS = ("name", "descriptor", "expected", "nam", "Descriptor", "expect", "mode")
TOKEN_HEADS = ("pn", "curve", "abelian", "surface", "hypersurface", "bogus")
DIGITS = st.integers(0, 5).map(str)
FIELD_JUNK = st.sampled_from(["-1", "+2", "x", "", " 3", "1_0", "99999999999"])
# a huge --max-dim within the ceiling would let a fuzzed product of
# dimension 20 run for minutes; one above it is refused at once
LIMITS = st.sampled_from(["2", "6", "8"])
LIMIT_JUNK = FIELD_JUNK | st.just("65")
# dimensions and degrees above every limit; a corpus line refuses them
# before it builds anything of their size
ABOVE_LIMIT = st.sampled_from([9, 99, 10**9])
# stands for an integer past the int-string digit limit, which `json.dumps`
# refuses to write, so the line's text carries it in place of this string
HUGE = "<4301 digits>"
MONOMIALS = st.sampled_from(["c1^2", "c2", "c1*c1", "1", "c3", "c1^3", "c1*c2", "2*c2", "x"])

json_scalars = st.one_of(
    st.none(), st.booleans(), SMALL, st.floats(allow_nan=False, width=16), st.text(max_size=6)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
token_text = st.text(alphabet="pncurvelabisfyhdt():,0123456789-+ _x", max_size=24)
poly_text = st.text(alphabet="c0123456789^*+-/ .e_", max_size=20)
chi_targets = st.builds(
    str.__add__, st.sampled_from(["chi:", "euler", "eul"]), st.text("0123456789-+ x", max_size=3)
)
# values that look like flags: a value flag takes them verbatim
DASHED = st.sampled_from(["-1*c1^2", "-c2", "-1,4", "-1", "--json", "-h", "--"])
# unknown flags, prefixes of real ones, flags of other commands and removed ones
STRAY_FLAGS = st.sampled_from(
    ["--bogus", "--js", "--dim-", "-x", "--JSON", "--all", "--version", "--c1sq"]
)
SWITCHES = ("--json", "--all-p")


def mostly(draw, good, bad):
    """Draw from `good` three times in four, else from `bad`."""
    return draw(good if draw(st.integers(0, 3)) < 3 else bad)


def rarely(draw) -> bool:
    """True about once in sixteen (hypothesis leans to low draws, so the top one)."""
    return draw(st.integers(0, 15)) == 15


def valued(draw, name: str, value: str) -> list[str]:
    """A value flag as '--flag value' or, now and then, as '--flag=value'."""
    return [f"{name}={value}"] if draw(st.integers(0, 3)) == 3 else [name, value]


@st.composite
def tokens(draw, depth: int = 2) -> str:
    if depth and draw(st.integers(0, 3)) == 3:
        return f"product({draw(tokens(depth - 1))},{draw(tokens(depth - 1))})"
    head = draw(st.sampled_from(TOKEN_HEADS))
    arity = mostly(draw, st.just(len(RECIPES.get(head, ()))), st.integers(0, 3))
    return ":".join([head] + [mostly(draw, DIGITS, FIELD_JUNK) for _ in range(arity)])


@st.composite
def descriptors(draw, depth: int = 2):
    kind = draw(st.sampled_from(sorted(RECIPES)))
    fields = mostly(
        draw, st.just(RECIPES[kind]), st.lists(st.sampled_from(FIELDS), max_size=4, unique=True)
    )
    obj = {"type": kind}
    for field in fields:
        if field in ("left", "right"):
            obj[field] = draw(descriptors(depth - 1)) if depth else draw(json_scalars)
        elif field == "values":
            obj[field] = mostly(draw, st.dictionaries(MONOMIALS, SMALL.map(str)), json_values)
        elif field == "convention":
            obj[field] = mostly(draw, st.sampled_from(["tangent", "cotangent"]), json_scalars)
        elif rarely(draw):
            obj[field] = draw(ABOVE_LIMIT | st.just(HUGE))
        else:
            obj[field] = mostly(draw, st.integers(0, 4), json_scalars)
    return obj


@st.composite
def corpus_lines(draw) -> str:
    if draw(st.integers(0, 3)) < 3:
        entry = {
            "name": mostly(draw, st.text(max_size=4), json_scalars),
            "descriptor": draw(descriptors()),
        }
        if draw(st.booleans()):  # an object, or now and then a scalar or a list
            objects = st.dictionaries(st.text(max_size=4), json_values, max_size=3)
            others = json_scalars | st.lists(json_values, max_size=3)
            entry["expected"] = mostly(draw, objects, others)
        if draw(st.integers(0, 3)) == 3:  # one key renamed: misspelt, stray or another's
            key = draw(st.sampled_from(sorted(entry)))
            entry[draw(st.sampled_from(CORPUS_KEYS))] = entry.pop(key)
        return json.dumps(entry).replace(json.dumps(HUGE), "9" * 4301)
    line = draw(json_values.map(json.dumps) | st.text(max_size=12))
    return line.replace("\n", " ").replace("\r", " ")


modes = st.sampled_from(["nef-cotangent", "nef-tangent", "nef_tangent", "both"])


@st.composite
def commands(draw) -> tuple[list[str], list[str] | None]:
    """A well-formed command line with fuzzed values: (argv, corpus lines or
    None); "{corpus}" in argv names the corpus file."""
    command = draw(st.sampled_from(["chi", "schur", "certify", "eval", "check", "check-corpus"]))
    flags = ["--json"] if draw(st.booleans()) else []
    if draw(st.booleans()):
        flags += valued(draw, "--max-dim", draw(LIMIT_JUNK if rarely(draw) else LIMITS))
    dim = mostly(draw, SMALL.map(str), FIELD_JUNK)
    if command == "chi":
        convention = mostly(draw, st.sampled_from(["tangent", "cotangent"]), st.just("both"))
        return ["chi", *valued(draw, "--dim", dim), "--convention", convention] + flags, None
    if command == "schur":
        partition = draw(st.none() | st.text(alphabet="0123456789, +-", max_size=8) | DASHED)
        extra = [] if partition is None else valued(draw, "--partition", partition)
        return ["schur", "--dim", dim] + extra + flags, None
    if command == "certify":
        dim = mostly(draw, st.integers(-1, 4).map(str), FIELD_JUNK)
        argv = ["certify", *valued(draw, "--dim", dim), "--mode", draw(modes)]
        if draw(st.booleans()):
            argv += ["--assume", draw(st.sampled_from(["my2", "my4", "c1top", "my4,c1top", "x"]))]
        target = draw(st.just("--all-p") | chi_targets | poly_text | DASHED)
        argv += [target] if target == "--all-p" else valued(draw, "--target", target)
        return argv + flags, None
    if command == "eval":
        token = mostly(draw, tokens(), token_text)
        argv = ["variety", "eval", token]
        if draw(st.booleans()):
            argv += valued(draw, "--target", draw(chi_targets | DASHED))
        return argv + flags, None
    if command == "check":
        target, lines = mostly(draw, tokens(), token_text), None
    else:
        target, lines = "{corpus}", draw(st.lists(corpus_lines(), min_size=1, max_size=3))
    return ["check", target, *valued(draw, "--mode", draw(modes))] + flags, lines


@st.composite
def invocations(draw) -> tuple[list[str], list[str] | None]:
    """A command line from `commands`, now and then misshapen: with an
    unknown flag, with one flag repeated, or without its command."""
    argv, lines = draw(commands())
    misuse = draw(st.integers(0, 6))
    if misuse == 4:
        argv.insert(draw(st.integers(0, len(argv))), draw(STRAY_FLAGS))
    elif misuse == 5 and any(arg.startswith("--") for arg in argv):
        # repeat a flag with its value, if it takes a separate one
        i = draw(st.sampled_from([i for i, arg in enumerate(argv) if arg.startswith("--")]))
        argv += argv[i : i + (1 if "=" in argv[i] or argv[i] in SWITCHES else 2)]
    elif misuse == 6:
        argv = argv[2:] if argv[0] == "variety" else argv[1:]
    return argv, lines


# text and JSON forms of an infeasible target, an open --all-p report and a
# failed audit
VERDICTS = (
    "status = infeasible",
    "verdict: open",
    "verdict: fail",
    '"status":"infeasible"',
    '"allCertified":false',
    '"pass":false',
)


@settings(max_examples=300, deadline=None)
@given(invocations())
def test_main_keeps_the_error_contract(invocation):
    argv, lines = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        if lines is not None:
            corpus = os.path.join(scratch, "corpus.jsonl")
            with open(corpus, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
            argv = [corpus if arg == "{corpus}" else arg for arg in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    stdout, stderr = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, (argv, stderr)
        assert stdout == ""
        # the interpreter's own texts for a long integer and a bad enum value
        assert "set_int_max_str_digits" not in stderr, (argv, stderr)
        assert "is not a valid BasisConvention" not in stderr, (argv, stderr)
    else:
        assert stderr == "", (argv, stderr)
        if code == 1:
            assert any(verdict in stdout for verdict in VERDICTS), (argv, stdout)


BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def bench_module(name: str):
    """A module of `bench/` loaded by path under its own name, by which the
    bench's modules import one another (`workloads` imports `check`)."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = bench_module("check")
workloads = bench_module("workloads")  # the bench's op builders and recipe draws


@st.composite
def varieties(draw, most: int = 6, depth: int = 2):
    """A variety of dimension at most `most`, nested at most `depth` deep,
    its leaves drawn by the bench's `_variety`."""
    if most >= 2 and depth and draw(st.booleans()):
        left = draw(varieties(most - 1, depth - 1))
        right = draw(varieties(most - left.dimension, depth - 1))
        return workloads.Descriptor("product", (left, right))
    return workloads._variety(draw(st.randoms(use_true_random=True)), draw(st.integers(1, most)))


@st.composite
def verified_ops(draw, kind: str):
    """A `workloads.Op` of one `bench/check.py` kind at n <= 6: an accepted
    `--json` command line and what the checker needs to verify its output.
    A `check` op names its corpus "{corpus}" and holds the corpus text."""
    n = draw(st.integers(0 if kind in ("chi", "schur") else 1, 6))
    if kind == "chi":
        return workloads._chi(n, draw(st.sampled_from(workloads.CONVENTIONS)))
    if kind == "schur":
        return workloads._schur_op(n)
    if kind == "certify":  # feasible by construction, or drawn per monomial
        rng = draw(st.randoms(use_true_random=True))
        return workloads._certify_op(rng, n, draw(st.booleans()))
    mode = draw(st.sampled_from(SIGN_MODES))
    if kind == "all_p":
        return workloads._all_p_op(n, mode)
    if kind == "check":
        descriptors = tuple(draw(st.lists(varieties(), min_size=1, max_size=3)))
        corpus = "".join(
            json.dumps({"descriptor": d.to_json(), "name": d.token()}) + "\n" for d in descriptors
        )
        argv = ["check", "{corpus}", "--json", "--mode", mode.replace("_", "-")]
        return workloads.Op(kind, argv, mode=mode, descriptors=descriptors, corpus=corpus)
    variety = draw(varieties())
    argv = ["variety", "eval", variety.token(), "--json"]
    return workloads.Op(kind, argv, dim=variety.dimension, descriptors=(variety,))


# each kind on its own, so every run draws every kind; `chi`, `schur` and
# `all_p` have fewer distinct command lines than examples
@pytest.mark.parametrize("kind", ["chi", "schur", "certify", "all_p", "check", "eval"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_accepted_outputs_pass_the_independent_checker(kind, data):
    op = data.draw(verified_ops(kind))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        corpus = os.path.join(scratch, "corpus.jsonl")
        with open(corpus, "w", encoding="utf-8") as handle:
            handle.write(op.corpus)
        argv = [corpus if arg == "{corpus}" else arg for arg in op.argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1) and err.getvalue() == "", (argv, code, err.getvalue())
    # raises unless the output verifies and exit 1 comes exactly with an
    # infeasible target, an open report or a failed audit
    checker.check_op(op, code, out.getvalue().encode())


def test_the_checker_imports_no_chigenus_module():
    # a child with chigenus on its path (conftest.py sets PYTHONPATH) loads
    # the checker and lists every chigenus module it then holds
    script = (
        "import runpy, sys\n"
        "runpy.run_path(sys.argv[1])\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'chigenus'))"
    )
    argv = [sys.executable, "-S", "-c", script, str(BENCH / "check.py")]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
