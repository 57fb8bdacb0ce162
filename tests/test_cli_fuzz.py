"""Property test of the error contract of `cli.main` on arbitrary input.

Whatever the tokens, corpus lines, polynomial text, numeric flag values or
config JSON, `main` returns 0, 1 or 2 without raising; exit 2 comes with
exactly one `error:` line on stderr, and exit 1 only with an "infeasible",
"open" or failed-audit verdict on stdout.  Dimensions stay small so every
example runs in milliseconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from chigenus.cli import CONFIG_ENV, main

SMALL = st.integers(-2, 6)
# recipe kind -> the fields its descriptor JSON needs ("bogus" is no kind)
RECIPES = {
    "pn": ("n",),
    "curve": ("genus",),
    "abelian": ("n",),
    "surface": ("c1sq", "c2"),
    "hypersurface": ("degree", "ambient"),
    "product": ("left", "right"),
    "explicit": ("n", "values"),
    "bogus": (),
}
FIELDS = sorted({field for fields in RECIPES.values() for field in fields})
TOKEN_HEADS = ("pn", "curve", "abelian", "surface", "hypersurface", "bogus")
DIGITS = st.integers(0, 5).map(str)
FIELD_JUNK = st.sampled_from(["-1", "+2", "x", "", " 3", "1_0", "99999999999"])
# a huge --max-dim would let a fuzzed product of dimension 20 run for minutes
LIMITS = st.sampled_from(["2", "6", "8"])
LIMIT_JUNK = FIELD_JUNK.filter(lambda text: text != "99999999999")
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


def mostly(draw, good, bad):
    """Draw from `good` three times in four, else from `bad`."""
    return draw(good if draw(st.integers(0, 3)) < 3 else bad)


def rarely(draw) -> bool:
    """True about once in sixteen (hypothesis leans to low draws, so the top one)."""
    return draw(st.integers(0, 15)) == 15


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
        else:
            obj[field] = mostly(draw, st.integers(0, 4), json_scalars)
    return obj


@st.composite
def corpus_lines(draw) -> str:
    if draw(st.integers(0, 3)) < 3:
        entry = {"name": draw(st.text(max_size=4)), "descriptor": draw(descriptors())}
        if draw(st.booleans()):
            entry["expected"] = draw(json_values)
        return json.dumps(entry)
    line = draw(json_values.map(json.dumps) | st.text(max_size=12))
    return line.replace("\n", " ").replace("\r", " ")


@st.composite
def configs(draw) -> str | None:
    """Config file text, or None for no config."""
    valid = st.sampled_from([None, '{"max_dim": 2}', '{"max_dim": 6}'])
    junk = st.one_of(
        json_scalars.map(lambda limit: json.dumps({"max_dim": limit})),
        json_values.map(json.dumps),
        st.text(max_size=8),
    )
    return mostly(draw, valid, junk)


modes = st.sampled_from(["nef-cotangent", "nef-tangent", "nef_tangent", "both"])


@st.composite
def invocations(draw) -> tuple[list[str], list[str] | None]:
    """(argv, corpus lines or None); "{corpus}" in argv names the corpus file."""
    command = draw(st.sampled_from(["chi", "schur", "certify", "eval", "check", "check-corpus"]))
    flags = ["--json"] if draw(st.booleans()) else []
    if draw(st.booleans()):
        flags += ["--max-dim", draw(LIMIT_JUNK if rarely(draw) else LIMITS)]
    dim = mostly(draw, SMALL.map(str), FIELD_JUNK)
    if command == "chi":
        convention = draw(st.sampled_from(["tangent", "cotangent"]))
        return ["chi", "--dim", dim, "--convention", convention] + flags, None
    if command == "schur":
        partition = draw(st.none() | st.text(alphabet="0123456789, +-", max_size=8))
        extra = [] if partition is None else ["--partition", partition]
        return ["schur", "--dim", dim] + extra + flags, None
    if command == "certify":
        dim = mostly(draw, st.integers(-1, 4).map(str), FIELD_JUNK)
        argv = ["certify", "--dim", dim, "--mode", draw(modes)]
        if draw(st.booleans()):
            argv += ["--assume", draw(st.sampled_from(["my2", "my4", "c1top", "my4,c1top", "x"]))]
        target = draw(st.just("--all-p") | chi_targets | poly_text)
        argv += [target] if target == "--all-p" else ["--target", target]
        return argv + flags, None
    if command == "eval":
        token = mostly(draw, tokens(), token_text)
        argv = ["variety", "eval", token]
        if draw(st.booleans()):
            argv += ["--target", draw(chi_targets)]
        return argv + flags, None
    if command == "check":
        target, lines = mostly(draw, tokens(), st.just("surface") | token_text), None
    else:
        target, lines = "{corpus}", draw(st.lists(corpus_lines(), min_size=1, max_size=3))
    # --c1sq/--c2 mostly come with 'surface' and rarely with another target,
    # as there they are refused before its token or corpus is read
    for field in ("--c1sq", "--c2"):
        if draw(st.integers(0, 3)) < 3 if target == "surface" else rarely(draw):
            flags += [field, mostly(draw, DIGITS, FIELD_JUNK)]
    return ["check", target, "--mode", draw(modes)] + flags, lines


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
@given(invocations(), configs())
def test_main_keeps_the_error_contract(invocation, config):
    argv, lines = invocation
    saved = os.environ.pop(CONFIG_ENV, None)
    out, err = io.StringIO(), io.StringIO()
    try:
        with tempfile.TemporaryDirectory() as scratch:
            if lines is not None:
                corpus = os.path.join(scratch, "corpus.jsonl")
                with open(corpus, "w", encoding="utf-8") as handle:
                    handle.write("\n".join(lines) + "\n")
                argv = [corpus if arg == "{corpus}" else arg for arg in argv]
            if config is not None:
                path = os.path.join(scratch, "config.json")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(config)
                os.environ[CONFIG_ENV] = path
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                    from_argparse = False
                except SystemExit as exc:  # argparse rejects the command line
                    code, from_argparse = exc.code, True
    finally:
        os.environ.pop(CONFIG_ENV, None)
        if saved is not None:
            os.environ[CONFIG_ENV] = saved
    stdout, stderr = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if from_argparse:
        assert code == 2, argv
        assert sum("error:" in line for line in stderr.splitlines()) == 1, stderr
        assert stdout == ""
    elif code == 2:
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, (argv, stderr)
        assert stdout == ""
    else:
        assert stderr == "", (argv, stderr)
        if code == 1:
            assert any(verdict in stdout for verdict in VERDICTS), (argv, stdout)
