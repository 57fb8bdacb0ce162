import ast
import gc
import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
from operator import mul

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chigenus import ASSUMPTION_TAGS, SIGN_MODES, __version__, poly
from chigenus.cli import main
from chigenus.cone import (
    Certificate,
    ChiSignReport,
    ChiSignRow,
    Infeasibility,
    _phase_one,
    certify,
    certify_chi_signs,
    generators,
)
from chigenus.hrr import chi_p, chi_table, signed_target
from chigenus.poly import (
    BasisConvention,
    ChernFunctional,
    json_text,
    json_view,
    partitions_of,
    weight_basis,
)
from chigenus.symchern import partition_label, schur
from chigenus.varieties import check_signs, descriptor_from_token, load_corpus

from oracles import GradedPoly, json_loads_parse

GOLDEN = pathlib.Path(__file__).parent / "golden"
# the pinned command lines: each key, split on whitespace, is an argv whose
# exit code and SHA-256 of stdout and stderr must not change; corpus paths
# are relative to the repository root, and CI replays every row cold
OUTPUT_SHA256 = json.loads((GOLDEN / "outputs_sha256.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChiCommand:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_golden_tables(self, capsys, n):
        code, out, _ = run_cli(capsys, "chi", "--dim", str(n))
        assert code == 0
        assert out == (GOLDEN / f"chi_dim{n}.txt").read_text()

    def test_duplicate_serre_rows_dim2(self, capsys):
        _, out, _ = run_cli(capsys, "chi", "--dim", "2")
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert lines[1].split(" = ")[1] == lines[3].split(" = ")[1]
        assert lines[1] != lines[2]

    def test_tangent_convention(self, capsys):
        code, out, _ = run_cli(capsys, "chi", "--dim", "3", "--convention", "tangent")
        assert code == 0
        assert "chi^0 = 1/24*c1*c2" in out
        assert "(dim 3, tangent)" in out

    def test_json_envelope(self, capsys):
        code, out, _ = run_cli(capsys, "chi", "--dim", "2", "--json")
        assert code == 0
        envelope = json.loads(out)
        assert envelope["command"] == "chi"
        assert envelope["dimension"] == 2
        assert envelope["convention"] == "cotangent"
        assert envelope["toolVersion"] == __version__
        # canonical output: sorted keys, exact separators
        assert out == json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n"

    def test_json_reparses_to_domain_object(self, capsys):
        _, out, _ = run_cli(capsys, "chi", "--dim", "3", "--json")
        payload = json.loads(out)["payload"]
        assert (payload["dim"], payload["convention"]) == (3, "cotangent")
        rows = sorted(payload["rows"], key=lambda row: row["p"])
        assert [GradedPoly.from_json_dict(row["poly"]).top_coefficients() for row in rows] == [
            row.coeffs for row in chi_table(3)
        ]

    def test_dim_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "chi", "--dim", "9")
        assert code == 2
        assert "error" in err

    def test_max_dim_flag(self, capsys):
        code, _, _ = run_cli(capsys, "chi", "--dim", "9", "--max-dim", "9")
        assert code == 0


class TestSchurCommand:
    def test_all_generators(self, capsys):
        code, out, _ = run_cli(capsys, "schur", "--dim", "3")
        assert code == 0
        assert out.splitlines() == [
            "schur generators (dim 3)",
            "P_(3,0,0) = 1*c3",
            "P_(2,1,0) = 1*c1*c2 - 1*c3",
            "P_(1,1,1) = 1*c1^3 - 2*c1*c2 + 1*c3",
        ]

    def test_single_partition(self, capsys):
        code, out, _ = run_cli(capsys, "schur", "--dim", "4", "--partition", "2,1,1")
        assert code == 0
        assert out.strip() == "P_(2,1,1,0) = 1*c1^2*c2 - 1*c1*c3 - 1*c2^2 + 1*c4"

    def test_json_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "schur", "--dim", "2", "--json")
        payload = json.loads(out)["payload"]
        polys = [GradedPoly.from_json_dict(g["poly"]) for g in payload["generators"]]
        assert polys == [
            GradedPoly.from_text(2, "1*c2"),
            GradedPoly.from_text(2, "1*c1^2 - 1*c2"),
        ]

    def test_bad_partition(self, capsys):
        code, _, err = run_cli(capsys, "schur", "--dim", "3", "--partition", "1,2")
        assert code == 2
        assert "error" in err

    def test_signed_partition_part_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "schur", "--dim", "3", "--partition", "+2,1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_negative_partition_part_reaches_its_check(self, capsys):
        code, out, err = run_cli(capsys, "schur", "--dim", "3", "--partition", "-1,4")
        assert (code, out) == (2, "")
        assert err == "error: (-1, 4) is not a partition of 3\n"

    def test_spaced_partition_text(self, capsys):
        code, out, _ = run_cli(capsys, "schur", "--dim", "3", "--partition", "2, 1")
        assert code == 0
        assert out.strip() == "P_(2,1,0) = 1*c1*c2 - 1*c3"


class TestCertifyCommand:
    def test_dim4_with_assumptions_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--dim", "4", "--target", "chi:4",
            "--assume", "my4,c1top",
        )
        assert code == 0
        assert "status = certified" in out

    def test_dim4_schur_only_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--dim", "4", "--target", "chi:4")
        assert code == 1
        assert "status = infeasible" in out
        assert "witness" in out

    def test_dim3_scaled_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--dim", "3", "--target", "chi:3")
        assert code == 0
        assert "target = 1*c1*c2 (sign 1, scale 24)" in out
        assert "1 * P_(3,0,0)" in out
        assert "1 * P_(2,1,0)" in out

    @pytest.mark.parametrize("target", ["1/0*c1^3", "c1*c2 - 2/0*c3"])
    def test_zero_denominator_target_exit_two(self, capsys, target):
        code, out, err = run_cli(capsys, "certify", "--dim", "3", f"--target={target}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_exponent_past_the_digit_limit_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "certify", "--dim", "2", "--target", "c1^" + "9" * 5000)
        assert (code, out) == (2, "")
        assert err == "error: bad target polynomial: a variable index or exponent is too long\n"

    @pytest.mark.parametrize("dim, target", [("1", "\u0663*c1"), ("2", "1*c\u0661^2")])
    def test_non_ascii_digit_target_exit_two(self, capsys, dim, target):
        code, out, err = run_cli(capsys, "certify", "--dim", dim, "--target", target)
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad target polynomial: ") and err.count("\n") == 1

    def test_repeated_assumption_exit_two(self, capsys):
        code, out, err = run_cli(
            capsys, "certify", "--dim", "4", "--target", "chi:4",
            "--assume", "my4,my4,c1top", "--json",
        )
        assert (code, out, err) == (2, "", "error: assumption 'my4' given twice\n")

    def test_malformed_target_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "certify", "--dim", "3", "--target", "chi:7")
        assert code == 2
        code, _, err = run_cli(capsys, "certify", "--dim", "3", "--target", "c9*c1")
        assert code == 2
        code, _, err = run_cli(
            capsys, "certify", "--dim", "3", "--target", "1 + 1*c3"
        )
        assert code == 2  # not homogeneous of top weight

    @pytest.mark.parametrize(
        "flags, message",
        [
            (
                ("--target", "c1^5"),
                "bad target polynomial: monomial c1^5 has weight 5 > dimension 4",
            ),
            (("--target", "chi:5"), "chi target p=5 outside 0..4"),
            (
                ("--assume", "my2", "--target", "c1^5"),
                "assumption 'my2' is only valid in dimension 2",
            ),
        ],
        ids=["polynomial", "chi", "my2-first"],
    )
    def test_target_refused_before_the_catalog(self, capsys, monkeypatch, flags, message):
        # the assumptions, then the target, are checked before the Schur
        # catalog or any chi_y row is built
        from chigenus import cone, hrr

        monkeypatch.setattr(cone, "_schur_rows", lambda *a: pytest.fail("catalog built"))
        monkeypatch.setattr(hrr, "_chi_y_rows", lambda n: pytest.fail("chi_y computed"))
        code, out, err = run_cli(capsys, "certify", "--dim", "4", *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("target, code", [("chi:4", 0), ("c1^4 - 9*c4", 1)])
    def test_a_target_builds_the_catalog_once(self, capsys, monkeypatch, target, code):
        from chigenus import cone

        built, build = [], cone._schur_rows
        monkeypatch.setattr(cone, "_schur_rows", lambda *a: built.append(a[1]) or build(*a))
        argv = ("certify", "--dim", "4", "--target", target, "--assume", "my4,c1top")
        assert run_cli(capsys, *argv)[0] == code
        assert built == [4]

    def test_invalid_assumption_for_dimension(self, capsys):
        code, _, err = run_cli(
            capsys, "certify", "--dim", "3", "--target", "chi:3", "--assume", "my4"
        )
        assert code == 2

    def test_inline_polynomial_target(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--dim", "2", "--target", "1*c1^2 + 1*c2"
        )
        assert code == 0

    def test_euler_target(self, capsys):
        code, _, _ = run_cli(capsys, "certify", "--dim", "3", "--target", "euler")
        assert code == 0
        code, _, _ = run_cli(
            capsys, "certify", "--dim", "3", "--target", "euler",
            "--mode", "nef-tangent",
        )
        assert code == 0

    def test_all_p_report_dim2(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--dim", "2", "--all-p", "--assume", "my2"
        )
        assert code == 0
        assert "verdict: certified" in out

    def test_all_p_report_dim4(self, capsys):
        # only the boundary rows are provable; interior rows stay open
        code, out, _ = run_cli(
            capsys, "certify", "--dim", "4", "--all-p", "--assume", "my4,c1top"
        )
        assert code == 1
        lines = out.strip().splitlines()
        assert "p=0 scale=720 certified" in lines
        assert "p=4 scale=720 certified" in lines
        assert "p=2 scale=120 open" in lines
        assert "verdict: open" in lines

    def test_all_p_with_target_refused(self, capsys):
        code, out, err = run_cli(capsys, "certify", "--all-p", "--dim", "2", "--target", "garbage")
        assert (code, out, err) == (2, "", "error: certify takes --target or --all-p, not both\n")

    def test_neither_target_nor_all_p_refused(self, capsys):
        code, out, err = run_cli(capsys, "certify", "--dim", "2")
        assert (code, out, err) == (2, "", "error: certify needs --target or --all-p\n")

    def test_target_value_may_start_with_a_dash(self, capsys):
        # a value flag takes the next token verbatim, as in the --flag=value form
        spaced = run_cli(capsys, "certify", "--dim", "2", "--target", "-1*c1^2")
        joined = run_cli(capsys, "certify", "--dim", "2", "--target=-1*c1^2")
        assert spaced == joined
        assert spaced[0] == 1 and "target = -1*c1^2" in spaced[1]

    def test_json_certificate_reparses(self, capsys):
        _, out, _ = run_cli(
            capsys, "certify", "--dim", "4", "--target", "chi:4",
            "--assume", "my4,c1top", "--json",
        )
        envelope = json.loads(out)
        payload = envelope["payload"]
        assert payload["status"] == "certified"
        target = GradedPoly.from_json_dict(payload["certificate"]["target"])
        cleared, _ = signed_target(chi_p(4, 4), 1, "nef_cotangent")
        assert target.top_coefficients() == cleared.coeffs
        # re-run certify in-process and compare coefficient maps
        gens = generators(4, ("my4", "c1top"))
        result = certify(
            ChernFunctional(4, BasisConvention.COTANGENT, target.top_coefficients(), 1), gens
        )
        assert isinstance(result, Certificate)
        expected_terms = [
            {"coef": str(c), "gen": name}
            for name, c in zip(result.generator_names, result.coefficients)
            if c
        ]
        assert payload["certificate"]["terms"] == expected_terms


# corpus lines that lack a field, and the field
MISSING_FIELD = {
    '{"name":"a","descriptor":{"type":"pn"}}': "n",
    '{"name":"p","descriptor":{"type":"product","left":{"type":"pn","n":1}}}': "right",
    '{"descriptor":{"type":"pn","n":1}}': "name",
}
# JSON keeps the last of a repeated key; a corpus line that repeats one is
# refused, so it never audits a variety other than the one it seems to name
REPEATED_KEY = {
    '{"name":"a","descriptor":{"type":"pn","n":2,"n":3}}': "n",
    '{"name":"a","name":"b","descriptor":{"type":"pn","n":2}}': "name",
    '{"name":"e","descriptor":{"type":"explicit","n":1,"values":{"c1":"1","c1":"2"}}}': "c1",
}
# a "type" that names no descriptor is refused by its value, whatever its
# JSON type
UNKNOWN_TYPE = {
    '{"name":"a","descriptor":{"type":5}}': "5",
    '{"name":"a","descriptor":{"type":[1]}}': "[1]",
    '{"name":"a","descriptor":{"type":{"n":1}}}': "{'n': 1}",
}
# a field that the descriptor's type does not have is refused, so a misspelt
# one never leaves the default in place (here cotangent, or no values)
UNKNOWN_FIELD = {
    (
        '{"name":"e","descriptor":'
        '{"type":"explicit","n":1,"values":{"c1":2},"conventon":"tangent"}}'
    ): "'conventon' for descriptor type 'explicit'",
    '{"name":"e","descriptor":{"type":"explicit","n":1,"value":{"c1":2}}}': (
        "'value' for descriptor type 'explicit'"
    ),
}
# a line holds "name", "descriptor" and "expected" only, so a key that
# `check` would never read (here a mode) is refused, not ignored; and a
# name is a string
BAD_TOP_LEVEL = {
    '{"name":"a","descriptor":{"type":"pn","n":2},"mode":"nef_tangent"}': (
        "unknown field 'mode'"
    ),
    '{"name":5,"descriptor":{"type":"pn","n":2}}': "field 'name' must be a string",
    '{"name":"a","descriptor":{"type":"pn","n":2},"expected":5}': (
        "field 'expected' must be an object"
    ),
    '{"name":"a","descriptor":{"type":"pn","n":2},"expected":["chi"]}': (
        "field 'expected' must be an object"
    ),
}
# a convention that is neither name is refused by its value, whatever its
# JSON type
BAD_CONVENTION = {
    '{"name":"e","descriptor":{"type":"explicit","n":1,"convention":"x"}}': "'x'",
    '{"name":"e","descriptor":{"type":"explicit","n":1,"convention":5}}': "5",
    '{"name":"e","descriptor":{"type":"explicit","n":1,"convention":[1]}}': "[1]",
}
# an explicit's dimension, values mapping, monomial keys and numbers are
# each refused by what is wrong with them, as is a factor of dimension 0
BAD_EXPLICIT = {
    '{"name":"e","descriptor":{"type":"explicit","n":"2"}}': (
        "dimension must be a non-negative integer: '2'"
    ),
    '{"name":"e","descriptor":{"type":"explicit","n":2,"values":[1]}}': (
        "Chern numbers must be a mapping: [1]"
    ),
    '{"name":"e","descriptor":{"type":"explicit","n":2,"values":{"c1^2 + c2":1}}}': (
        "monomial key expected, got 'c1^2 + c2'"
    ),
    '{"name":"e","descriptor":{"type":"explicit","n":2,"values":{"2*c2":1}}}': (
        "monomial key must have coefficient 1: '2*c2'"
    ),
    '{"name":"e","descriptor":{"type":"explicit","n":2,"values":{"c1":1}}}': (
        "not a weight-2 monomial: 'c1'"
    ),
    '{"name":"e","descriptor":{"type":"explicit","n":2,"values":{"c9":1}}}': (
        "variable c9 outside dimension 2"
    ),
    '{"name":"e","descriptor":{"type":"explicit","n":3,"values":{"c1*c2":1,"c2*c1":2}}}': (
        "two keys name the monomial c1*c2: 'c2*c1'"
    ),
    '{"name":"e","descriptor":{"type":"explicit","n":1,"values":{"c1":1.5}}}': (
        "exact rational required (int, Fraction, or 'a/b' string), got float"
    ),
    '{"name":"e","descriptor":{"type":"explicit","n":1,"values":{"c1":true}}}': (
        "bool is not a rational coefficient"
    ),
    '{"name":"e","descriptor":{"type":"explicit","n":1,"values":{"c1":"1/0"}}}': (
        "bad rational literal '1/0'"
    ),
    (
        '{"name":"e","descriptor":{"type":"product","left":{"type":"pn","n":1},'
        '"right":{"type":"explicit","n":0}}}'
    ): "product factor explicit:0 has dimension 0",
}
# `str.strip()` strips these, but JSON does not take them as whitespace: a
# line that starts or ends with one is not JSON, and one that holds only one
# is not blank
NOT_JSON_SPACE = {
    text: refusal
    for space in ("\x0c", "\x0b", "\x1c", "\x85", "\xa0", "\u2028", "\u3000")
    for line in ('{"name":"p","descriptor":{"type":"pn","n":2}}',)
    for text, refusal in (
        (space, "Expecting value: line 1 column 1 (char 0)"),
        (space + line, "Expecting value: line 1 column 1 (char 0)"),
        (line + space, f"Extra data: line 1 column {len(line) + 1} (char {len(line)})"),
    )
}
# NaN, Infinity and -Infinity are extensions that Python's `json` reads, not
# JSON: each is refused by name, wherever in a line it stands
NOT_JSON = {
    line.replace("@", literal): literal
    for literal in ("NaN", "Infinity", "-Infinity")
    for line in (
        '{"name":"x","descriptor":{"type":"pn","n":2},"expected":{"euler":@}}',
        '{"name":"x","descriptor":{"type":"pn","n":@}}',
    )
}


class TestCheckCommand:
    def test_builtin_pn3(self, capsys):
        code, out, _ = run_cli(capsys, "check", "pn:3", "--mode", "nef-tangent")
        assert code == 0
        assert "verdict: pass" in out

    def test_builtin_abelian(self, capsys):
        code, out, _ = run_cli(capsys, "check", "abelian:2", "--mode", "nef-cotangent")
        assert code == 0
        assert "p=0 chi=0 signed=0 ok" in out

    def test_surface_token(self, capsys):
        code, out, _ = run_cli(capsys, "check", "surface:9:3", "--mode", "nef-cotangent")
        assert code == 0
        assert "p=1 chi=-1 signed=1 ok" in out

    def test_surface_without_fields_is_a_malformed_token(self, capsys):
        code, out, err = run_cli(capsys, "check", "surface")
        assert (code, out, err) == (2, "", "error: malformed variety token 'surface'\n")

    @pytest.mark.parametrize("flag", ["--c1sq", "--c2"])
    def test_surface_flags_are_unknown(self, capsys, flag):
        # a surface is named by its token alone
        code, out, err = run_cli(capsys, "check", "surface", flag, "9", "--c2", "3")
        assert (code, out, err) == (2, "", f"error: unknown flag {flag!r} for check\n")

    def test_failing_audit_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "check", "surface:100:1", "--mode", "nef-cotangent")
        assert code == 1
        assert "FAIL" in out
        assert "verdict: fail" in out

    def test_corpus_file(self, capsys, corpus_path):
        code, out, _ = run_cli(
            capsys, "check", str(corpus_path), "--mode", "nef-cotangent"
        )
        # the corpus mixes modes; nef-cotangent fails on projective spaces
        assert code == 1
        code, out, _ = run_cli(
            capsys, "check", "product(curve:2,curve:2)", "--mode", "nef-cotangent"
        )
        assert code == 0

    @pytest.mark.parametrize("text", ["", "# comments only\n\n# no entries\n"])
    def test_corpus_without_entries_exit_two(self, capsys, tmp_path, text):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(text)
        code, out, err = run_cli(capsys, "check", str(corpus), "--json")
        assert (code, out, err) == (2, "", f"error: corpus {str(corpus)!r} holds no entries\n")

    def test_corpus_path_with_newline_is_one_error_line(self, capsys, tmp_path):
        corpus = tmp_path / "a\nb.jsonl"
        corpus.write_text("# comments only\n")
        code, out, err = run_cli(capsys, "check", str(corpus))
        assert (code, out, err.count("\n")) == (2, "", 1)

    def test_unknown_token(self, capsys):
        code, _, err = run_cli(capsys, "check", "blah:3")
        assert code == 2

    # a target that exists, ends in .jsonl or holds a '/' is a corpus path,
    # as no token does either, so a missing corpus is reported as a missing file
    @pytest.mark.parametrize(
        "target, error",
        [
            ("missing.jsonl", "[Errno 2] No such file or directory: 'missing.jsonl'"),
            ("nope/x", "[Errno 2] No such file or directory: 'nope/x'"),
            ("pn:2.5", "malformed variety token 'pn:2.5'"),
            ("blah:3", "unknown variety token 'blah:3'"),
        ],
    )
    def test_target_is_a_corpus_path_or_a_token(
        self, capsys, monkeypatch, tmp_path, target, error
    ):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "check", target)
        assert (code, out, err) == (2, "", f"error: {error}\n")

    @pytest.mark.parametrize(
        "line",
        [
            '{"name":"s","descriptor":{"type":"surface","c1sq":9.5,"c2":3}}',
            '{"name":"s","descriptor":{"type":"surface","c1sq":"a","c2":null}}',
            '{"name":"h","descriptor":{"type":"hypersurface","degree":true,"ambient":3}}',
            '{"name":"e","descriptor":{"type":"explicit","n":2,"values":{"c2":null}}}',
            '{"name":"e","descriptor":{"type":"explicit","n":99,"values":{"c1":1}}}',
            '{"name":"e","descriptor":{"type":"explicit","n":99,"values":{"2*c99":1}}}',
            '{"name":"e","descriptor":{"type":"explicit","n":2,"values":{"c1^2":"1","c1*c1":"2"}}}',
            '{"name":"e","descriptor":{"type":"explicit","n":2,"values":{"c1*c1":"2","c1^2":"1"}}}',
            '{"name":"e","descriptor":{"type":"explicit","n":1,"values":{"c1":"1_0"}}}',
            '{"name":"e","descriptor":{"type":"explicit","n":2,"values":{"2*c2-c2":"1"}}}',
            '{"name":"e","descriptor":{"type":"explicit","n":2,"values":{"c2 + 0":"1"}}}',
            '{"name":"e","descriptor":{"type":"explicit","n":2,"values":{"c1^2 - c1^2 + c2":"1"}}}',
            "[1]",
            *MISSING_FIELD,
            *REPEATED_KEY,
            *UNKNOWN_TYPE,
            *UNKNOWN_FIELD,
            *BAD_TOP_LEVEL,
            *BAD_CONVENTION,
            *BAD_EXPLICIT,
            *NOT_JSON,
            *NOT_JSON_SPACE,
        ],
    )
    def test_malformed_corpus_line_exit_two(self, capsys, tmp_path, line):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(line + "\n")
        code, out, err = run_cli(capsys, "check", str(corpus))
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad corpus line 1: ")
        assert err.count("\n") == 1
        if line in MISSING_FIELD:
            assert err == f"error: bad corpus line 1: missing field {MISSING_FIELD[line]!r}\n"
        if line in REPEATED_KEY:
            assert err == f"error: bad corpus line 1: repeated key {REPEATED_KEY[line]!r}\n"
        if line in UNKNOWN_TYPE:
            assert err == (
                f"error: bad corpus line 1: unknown descriptor type {UNKNOWN_TYPE[line]}\n"
            )
        if line in UNKNOWN_FIELD:
            assert err == f"error: bad corpus line 1: unknown field {UNKNOWN_FIELD[line]}\n"
        if line in BAD_TOP_LEVEL:
            assert err == f"error: bad corpus line 1: {BAD_TOP_LEVEL[line]}\n"
        if line in BAD_CONVENTION:
            assert err == (
                f"error: bad corpus line 1: unknown convention {BAD_CONVENTION[line]} "
                "(use tangent or cotangent)\n"
            )
        if line in BAD_EXPLICIT:
            assert err == f"error: bad corpus line 1: {BAD_EXPLICIT[line]}\n"
        if line in NOT_JSON:
            assert err == f"error: bad corpus line 1: {NOT_JSON[line]} is not JSON\n"
        if line in NOT_JSON_SPACE:
            assert err == f"error: bad corpus line 1: {NOT_JSON_SPACE[line]}\n"

    def test_corpus_line_not_utf8_names_the_line(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(b'{"name":"p","descriptor":{"type":"pn","n":1}}\n\xff\n')
        code, out, err = run_cli(capsys, "check", str(corpus))
        assert (code, out) == (2, "")
        assert err.startswith("error: bad corpus line 2: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    def test_json_whitespace_around_a_corpus_line_is_stripped(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        line = '{"name":"p","descriptor":{"type":"pn","n":2}}'
        corpus.write_text(line + "\n")
        plain = run_cli(capsys, "check", str(corpus))
        corpus.write_text(f" \t{line} \t\r\n \t\r\n")
        assert run_cli(capsys, "check", str(corpus)) == plain
        assert plain[0] == 0

    def test_recipe_field_refusal_names_kind_and_field(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"name":"h","descriptor":{"type":"hypersurface","degree":5,"ambient":1}}\n')
        code, out, err = run_cli(capsys, "check", str(corpus))
        assert (code, out) == (2, "")
        assert err == (
            "error: bad corpus line 1: hypersurface field 'ambient' must be an integer >= 2: 1\n"
        )

    @pytest.mark.parametrize(
        "descriptor, n",
        [
            ({"type": "explicit", "n": 99}, 99),
            ({"type": "explicit", "n": 99, "values": {"c1^99": 1, "c1*c98": "-3/2"}}, 99),
            ({"type": "explicit", "n": 10**9, "values": {"c1": 1}}, 10**9),
            (
                {
                    "type": "product",
                    "left": {"type": "pn", "n": 1},
                    "right": {"type": "explicit", "n": 10**9, "values": {"c1": 1}},
                },
                10**9,
            ),
        ],
    )
    def test_large_explicit_dimension_refused_quickly(self, tmp_path, descriptor, n):
        # each key of an explicit descriptor parses to a tuple as long as its
        # dimension, so the reader applies the limit before the keys; the
        # child's address space is capped at 1.5 GiB, so a reader that
        # builds such a tuple fails here without exhausting the machine
        def cap_address_space():
            import resource

            resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))

        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"name": "x", "descriptor": descriptor}) + "\n")
        argv = [sys.executable, "-m", "chigenus", "check", str(corpus)]
        result = subprocess.run(
            argv, capture_output=True, text=True, timeout=10, preexec_fn=cap_address_space
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"error: bad corpus line 1: descriptor explicit:{n} exceeds maximum dimension 8\n"
        )

    @pytest.mark.parametrize(
        "descriptor, name",
        [
            ({"type": "pn", "n": 99}, "pn:99"),
            (
                {
                    "type": "product",
                    "left": {"type": "pn", "n": 5},
                    "right": {"type": "pn", "n": 4},
                },
                "product(pn:5,pn:4)",
            ),
            (
                {
                    "type": "product",
                    "left": {"type": "pn", "n": 1},
                    "right": {
                        "type": "product",
                        "left": {"type": "pn", "n": 9},
                        "right": {"type": "curve", "genus": 2},
                    },
                },
                "pn:9",
            ),
            (
                {
                    "type": "product",
                    "left": {"type": "pn", "n": 9},
                    "right": {"type": "pn", "n": 1},
                },
                "pn:9",
            ),
        ],
        ids=["recipe", "product", "nested", "factor"],
    )
    def test_corpus_line_above_the_limit_names_the_line(self, capsys, tmp_path, descriptor, name):
        # every corpus line above the limit is refused where it is read, and
        # in a product the innermost descriptor above it is named
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"name": "x", "descriptor": descriptor}) + "\n")
        assert run_cli(capsys, "check", str(corpus)) == (
            2,
            "",
            f"error: bad corpus line 1: descriptor {name} exceeds maximum dimension 8\n",
        )

    def test_corpus_product_factor_of_dimension_zero_is_refused(self, capsys, tmp_path):
        # X x point = X; with no such factor, products nest less deep than
        # their dimension.  A point on its own is still audited.
        point = {"type": "explicit", "n": 0, "values": {"1": "3"}}
        product = {"type": "product", "left": point, "right": {"type": "pn", "n": 1}}
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"name": "x", "descriptor": product}) + "\n")
        assert run_cli(capsys, "check", str(corpus)) == (
            2,
            "",
            "error: bad corpus line 1: product factor explicit:0 has dimension 0\n",
        )
        corpus.write_text(json.dumps({"name": "x", "descriptor": point}) + "\n")
        code, out, err = run_cli(capsys, "check", str(corpus))
        assert (code, err) == (0, "")
        assert out.startswith("sign audit: explicit:0 (dim 0, mode nef_cotangent)\n")

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    @pytest.mark.parametrize("command", [("check",), ("variety", "eval")], ids=["check", "eval"])
    def test_token_above_the_limit_is_named_whole(self, capsys, command, json_flag):
        # the token is gated once parsed; its corpus twin ("factor" above)
        # names the factor
        token = "product(pn:9,pn:1)"
        assert run_cli(capsys, *command, token, *json_flag) == (
            2,
            "",
            f"error: descriptor {token} exceeds maximum dimension 8\n",
        )

    def test_integer_past_the_digit_limit(self, capsys, tmp_path):
        # written as text: json.dumps of such an int raises
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"name":"x","descriptor":{"type":"pn","n":' + "9" * 5000 + "}}\n")
        assert run_cli(capsys, "check", str(corpus)) == (
            2,
            "",
            f"error: bad corpus line 1: a number has over {sys.get_int_max_str_digits()} digits\n",
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "hypersurface:5:4:1"),
            ("check", "pn:3:7"),
            ("variety", "eval", "curve:2:x"),
            ("variety", "eval", "abelian:2:1"),
            ("variety", "eval", "curve:1_2"),
            ("variety", "eval", "pn: 2"),
            ("check", "surface:+9:3"),
        ],
    )
    def test_extra_token_fields_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: malformed variety token {argv[-1]!r}\n"


def product_chain(depth, corpus=False):
    """pn:1 times pn:1, times pn:1 ... : products nested `depth` deep, of
    dimension depth + 1, as a token or as a corpus line."""
    if not corpus:
        return "product(" * depth + "pn:1" + ",pn:1)" * depth
    pn = '{"type":"pn","n":1}'
    descriptor = '{"type":"product","left":' * depth + pn + (',"right":' + pn + "}") * depth
    return '{"name":"chain","descriptor":' + descriptor + "}\n"


class TestDeepNesting:
    """`max_dim` is at most `MAX_DIM`, and both readers refuse products
    nested `max_dim` or more levels deep before they descend, so no input
    reaches the stack limit and every depth exits the same way on any
    host."""

    def test_deep_product_token(self, capsys):
        assert run_cli(capsys, "variety", "eval", product_chain(1200)) == (
            2,
            "",
            "error: product nests too deeply for maximum dimension 8\n",
        )

    def test_deep_corpus_descriptor(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(product_chain(5000, corpus=True))
        code, out, err = run_cli(capsys, "check", str(corpus))
        assert (code, out) == (2, "")
        # `json` refuses it first under the interpreter's recursion limit;
        # under a higher limit the descriptor reader does
        assert err in (
            "error: bad corpus line 1: JSON nests too deeply\n",
            "error: bad corpus line 1: product nests too deeply for maximum dimension 8\n",
        )

    def test_deeply_nested_lists_in_a_corpus_line(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        line = '{"name":"x","descriptor":{"type":"pn","n":1},"expected":{"a":%s}}\n'
        corpus.write_text(line % ("[" * 5000 + "]" * 5000))
        assert run_cli(capsys, "check", str(corpus)) == (
            2,
            "",
            "error: bad corpus line 1: JSON nests too deeply\n",
        )

    @pytest.mark.parametrize("max_dim", [8, 64])
    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_a_chain_one_level_short_runs_alike_from_both_readers(
        self, capsys, tmp_path, max_dim, json_flag
    ):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(product_chain(max_dim - 1, corpus=True))
        flags = ("--max-dim", str(max_dim), *json_flag)
        from_token = run_cli(capsys, "check", product_chain(max_dim - 1), *flags)
        assert from_token[0] in (0, 1) and from_token[2] == ""
        assert f"dim {max_dim}" in from_token[1] or f'"dim":{max_dim}' in from_token[1]
        assert run_cli(capsys, "check", str(corpus), *flags) == from_token

    @pytest.mark.parametrize("max_dim", [1, 8, 64])
    def test_a_chain_max_dim_deep_is_refused_alike_by_both_readers(
        self, capsys, tmp_path, max_dim
    ):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(product_chain(max_dim, corpus=True))
        refusal = f"product nests too deeply for maximum dimension {max_dim}\n"
        for command in (("check",), ("variety", "eval")):
            argv = (*command, product_chain(max_dim), "--max-dim", str(max_dim))
            assert run_cli(capsys, *argv) == (2, "", f"error: {refusal}")
        argv = ("check", str(corpus), "--max-dim", str(max_dim))
        assert run_cli(capsys, *argv) == (2, "", f"error: bad corpus line 1: {refusal}")

    def test_max_dim_ceiling(self, capsys):
        # the chain 63 deep above runs under --max-dim 64; a weight-64 leaf
        # would need all p(64) (about 1.7 million) monomials
        assert run_cli(capsys, "variety", "eval", "pn:1", "--max-dim", "64")[0] == 0
        assert run_cli(capsys, "check", "pn:1", "--max-dim", "65") == (
            2,
            "",
            "error: --max-dim must be an integer within 0..64\n",
        )


class TestComputedNumbersPastTheDigitLimit:
    """A value the program computes may have more digits than the
    interpreter converts to text (`sys.set_int_max_str_digits`), although no
    input number does: two curves whose c_1 has 2 500 or 3 000 digits have a
    product with twice as many, and two 4 000-digit denominators a sum with
    a denominator of 8 000.  Every number is printed through
    `poly.rational_text`, so such a value is this program's one-line error
    and exit 2, and nothing is printed before it."""

    MESSAGE = (
        f"error: a computed number has over {sys.get_int_max_str_digits()} digits, "
        "too many to print\n"
    )
    CURVE = "curve:" + "9" * 2500

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("variety", "eval", f"product({CURVE},{CURVE})"),
            ("variety", "eval", f"product({CURVE},{CURVE})", "--target", "euler"),
            ("check", f"product({CURVE},{CURVE})"),
        ],
        ids=["eval", "eval-euler", "check"],
    )
    def test_token(self, capsys, argv, json_flag):
        assert run_cli(capsys, *argv, *json_flag) == (2, "", self.MESSAGE)

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_corpus_line(self, capsys, tmp_path, json_flag):
        curve = {"type": "explicit", "n": 1, "values": {"c1": "9" * 3000}}
        line = {"name": "EE", "descriptor": {"type": "product", "left": curve, "right": curve}}
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps(line) + "\n")
        assert run_cli(capsys, "check", str(corpus), *json_flag) == (2, "", self.MESSAGE)

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_a_later_corpus_entry(self, capsys, tmp_path, json_flag):
        curve = {"type": "explicit", "n": 1, "values": {"c1": "9" * 3000}}
        lines = [
            {"name": "P1", "descriptor": {"type": "pn", "n": 1}},
            {"name": "EE", "descriptor": {"type": "product", "left": curve, "right": curve}},
        ]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert run_cli(capsys, "check", str(corpus), *json_flag) == (2, "", self.MESSAGE)

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_certificate_coefficient(self, capsys, json_flag):
        # x c1^2 + y c2 = x P_(1,1) + (x + y) P_(2,0), and x + y = 1/a + 1/b
        # has a denominator of twice the digits of a and b
        a, b = "9" * 4000, "8" * 4000 + "1"
        target = f"1/{a}*c1^2 + 1/{b}*c2"
        argv = ("certify", "--dim", "2", "--target", target, *json_flag)
        assert run_cli(capsys, *argv) == (2, "", self.MESSAGE)

    def test_a_long_input_with_small_values_prints(self, capsys):
        # a genus-1 curve has c_1 = 0, so every Chern number of its product
        # with the long curve is 0
        code, out, err = run_cli(capsys, "variety", "eval", f"product({self.CURVE},curve:1)")
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == ["chi^0 = 0", "chi^1 = 0", "chi^2 = 0", "euler = 0"]


class TestVarietyCommand:
    def test_eval_table(self, capsys):
        code, out, _ = run_cli(capsys, "variety", "eval", "curve:2")
        assert code == 0
        assert out.splitlines() == [
            "variety curve:2 (dim 1)",
            "chi^0 = -1",
            "chi^1 = 1",
            "euler = -2",
        ]

    def test_eval_single_target(self, capsys):
        code, out, _ = run_cli(
            capsys, "variety", "eval", "hypersurface:5:4", "--target", "euler"
        )
        assert code == 0
        assert out.strip() == "euler = -200"

    def test_eval_json(self, capsys):
        _, out, _ = run_cli(capsys, "variety", "eval", "pn:3", "--json")
        payload = json.loads(out)["payload"]
        assert payload["chi"] == ["1", "-1", "1", "-1"]
        assert payload["euler"] == "4"

    def test_negative_surface_field_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "variety", "eval", "surface:-8:20")
        assert code == 0
        assert out.startswith("variety surface:-8:20 (dim 2)")

    @pytest.mark.parametrize("target", ["chi:x", "chi:", "chi:+1", "chi: 1", "chi:1_0"])
    def test_bad_chi_target_exit_two(self, capsys, target):
        for argv in (
            ("variety", "eval", "pn:2", "--target", target),
            ("certify", "--dim", "2", "--target", target),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err == f"error: bad chi target {target!r}\n"

    @pytest.mark.parametrize(
        "target, message",
        [
            ("chi:99", "chi target p=99 outside 0..64"),
            ("chi:x", "bad chi target 'chi:x'"),
            ("bogus", "unknown eval target 'bogus'"),
        ],
    )
    def test_target_refused_before_chi_y(self, capsys, monkeypatch, target, message):
        from chigenus.varieties import Hypersurface

        monkeypatch.setattr(Hypersurface, "_chi_y", lambda self: pytest.fail("chi_y computed"))
        degree = str(10**60)
        argv = ("variety", "eval", f"hypersurface:{degree}:65", "--max-dim", "64")
        code, out, err = run_cli(capsys, *argv, "--target", target)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_eval_computes_chern_numbers_of_the_leaves_only(self, capsys, monkeypatch, tmp_path):
        # a recipe leaf takes chi_y from its closed form and a product
        # convolves its factors'; no Chern numbers are computed, and only an
        # explicit leaf pairs the row it holds with a chi table
        from chigenus import hrr
        from chigenus.varieties import Curve, Explicit, Product, ProjectiveSpace

        calls = []
        for cls in (ProjectiveSpace, Curve, Product, Explicit):

            def counting(self, tangent_values=cls._tangent_values):
                calls.append(self.name())
                return tangent_values(self)

            monkeypatch.setattr(cls, "_tangent_values", counting)
        rows = hrr._chi_y_rows
        monkeypatch.setattr(hrr, "_chi_y_rows", lambda n: calls.append(n) or rows(n))
        code, out, _ = run_cli(capsys, "variety", "eval", "product(pn:1,product(curve:2,pn:2))")
        assert code == 0
        assert calls == []
        assert out.splitlines()[-1] == "euler = -12"
        explicit = {"type": "explicit", "n": 2, "values": {"c1^2": 9, "c2": 3}}
        product = {"type": "product", "left": explicit, "right": {"type": "pn", "n": 1}}
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"name": "e", "descriptor": product}) + "\n")
        code, out, _ = run_cli(capsys, "check", str(corpus))
        assert code == 1
        assert calls == [2]
        assert out.splitlines()[-2] == "euler = 6"


class TestDimensionLimit:
    """The CLI owns the dimension limit; the library applies none."""

    def test_variety_eval_flag_raises_limit(self, capsys):
        code, out, _ = run_cli(capsys, "variety", "eval", "pn:9", "--max-dim", "10")
        assert code == 0
        assert "euler = 10" in out

    def test_check_flag_raises_limit(self, capsys):
        code, _, _ = run_cli(capsys, "check", "pn:9", "--mode", "nef-tangent", "--max-dim", "9")
        assert code == 0
        # P^9 fails the nef-cotangent signs: a verdict, not the limit error
        code, out, _ = run_cli(capsys, "check", "pn:9", "--max-dim", "9")
        assert code == 1
        assert "verdict: fail" in out

    def test_check_default_limit(self, capsys):
        code, _, err = run_cli(capsys, "check", "pn:9")
        assert code == 2
        assert "maximum dimension 8" in err

    def test_certify_flag_raises_limit(self, capsys):
        code, _, _ = run_cli(capsys, "certify", "--dim", "9", "--all-p")
        assert code == 2
        code, _, _ = run_cli(capsys, "certify", "--dim", "9", "--all-p", "--max-dim", "9")
        assert code in (0, 1)

    def test_flag_lowers_limit_for_certify(self, capsys):
        code, _, err = run_cli(
            capsys, "certify", "--dim", "3", "--target", "chi:3", "--max-dim", "2"
        )
        assert code == 2
        assert err == "error: --dim must be within 1..2\n"
        code, _, _ = run_cli(capsys, "certify", "--dim", "2", "--target", "chi:2", "--max-dim", "2")
        assert code == 0

    @pytest.mark.parametrize(
        "text", ['{"max_dim": 9}', "{not json", None], ids=["limit", "broken", "missing"]
    )
    def test_the_environment_sets_no_limit(self, capsys, tmp_path, monkeypatch, text):
        # --max-dim is the one source of the limit: a config file named in
        # the environment, read by earlier versions, is ignored, even one
        # that is broken or missing
        monkeypatch.delenv("CHIGENUS_CONFIG", raising=False)
        unset = run_cli(capsys, "chi", "--dim", "2", "--json")
        config = tmp_path / "config.json"
        if text is not None:
            config.write_text(text)
        monkeypatch.setenv("CHIGENUS_CONFIG", str(config))
        assert run_cli(capsys, "chi", "--dim", "9") == (
            2,
            "",
            "error: --dim must be within 0..8\n",
        )
        assert run_cli(capsys, "chi", "--dim", "2", "--json") == unset

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("true", "--max-dim: invalid int value: 'true'"),
            ("false", "--max-dim: invalid int value: 'false'"),
            ("-1", "--max-dim must be an integer within 0..64"),
            ("9.0", "--max-dim: invalid int value: '9.0'"),
            ("65", "--max-dim must be an integer within 0..64"),
            ("", "--max-dim: invalid int value: ''"),
        ],
        ids=["true", "false", "-1", "9.0", "65", "empty"],
    )
    def test_flag_rejects_non_integer_limit(self, capsys, bad, message):
        # the limit is a plain decimal within 0..MAX_DIM, even at --dim 0
        assert run_cli(capsys, "chi", "--dim", "0", "--max-dim", bad) == (
            2,
            "",
            f"error: {message}\n",
        )

    def test_no_module_reads_the_environment(self):
        sources = sorted(pathlib.Path(poly.__file__).parent.glob("*.py"))
        assert len(sources) > 1
        readers = [
            f"{path.name}:{node.lineno}"
            for path in sources
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, (ast.Name, ast.Attribute))
            and {getattr(node, "id", None), getattr(node, "attr", None)} & {"environ", "getenv"}
        ]
        assert readers == []


class TestSharedFlags:
    """`--json` and `--max-dim` reach every command, through one limit."""

    # (argv at dimension 2, argv at dimension 3, refusal at max_dim 2)
    COMMANDS = {
        "chi": (("chi", "--dim", "2"), ("chi", "--dim", "3"), "--dim must be within 0..2"),
        "schur": (("schur", "--dim", "2"), ("schur", "--dim", "3"), "--dim must be within 0..2"),
        "certify": (
            ("certify", "--dim", "2", "--target", "chi:2"),
            ("certify", "--dim", "3", "--target", "chi:3"),
            "--dim must be within 1..2",
        ),
        "check": (
            ("check", "abelian:2"),
            ("check", "abelian:3"),
            "descriptor abelian:3 exceeds maximum dimension 2",
        ),
        "variety eval": (
            ("variety", "eval", "abelian:2"),
            ("variety", "eval", "abelian:3"),
            "descriptor abelian:3 exceeds maximum dimension 2",
        ),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_command_takes_json_and_max_dim(self, capsys, command):
        inside, above, refusal = self.COMMANDS[command]
        code, out, err = run_cli(capsys, *inside, "--json", "--max-dim", "2")
        assert code == 0, err
        assert json.loads(out)["command"] == command.replace(" ", "-")
        for flags in (("--max-dim", "2"), ("--json", "--max-dim", "2")):
            code, out, err = run_cli(capsys, *above, *flags)
            assert (code, out, err) == (2, "", f"error: {refusal}\n")
        for limit in ("-1", "65"):
            code, out, err = run_cli(capsys, *inside, "--max-dim", limit)
            assert (code, out) == (2, "")
            assert err == "error: --max-dim must be an integer within 0..64\n"

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_command_ignores_a_config_variable(self, capsys, tmp_path, monkeypatch, command):
        # a file naming a lower limit in CHIGENUS_CONFIG, which earlier
        # versions read, changes no byte at dimension 3
        _, above, _ = self.COMMANDS[command]
        monkeypatch.delenv("CHIGENUS_CONFIG", raising=False)
        unset = run_cli(capsys, *above, "--json")
        assert unset[0] in (0, 1) and unset[2] == ""
        config = tmp_path / "config.json"
        config.write_text('{"max_dim": 2}')
        monkeypatch.setenv("CHIGENUS_CONFIG", str(config))
        assert run_cli(capsys, *above, "--json") == unset

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (("chi", "--dim", "0_3"), "0_3"),
            (("chi", "--dim", "\u0663"), "\u0663"),
            (("schur", "--dim", "+3"), "+3"),
            (("certify", "--dim", " 3", "--all-p"), " 3"),
            (("chi", "--dim", "2", "--max-dim", "1_0"), "1_0"),
            (("variety", "eval", "pn:2", "--max-dim", "9 "), "9 "),
        ],
    )
    def test_numeric_flags_take_plain_decimals(self, capsys, argv, bad):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: --") and err.count("\n") == 1
        assert err.endswith(f"invalid int value: {bad!r}\n")

    COMMAND_LIST = "(use chi, schur, certify, check, variety eval)"

    # the shared flags come first; required flags are not bracketed
    USAGE = {
        "chi": "chi [-h] [--json] [--max-dim MAX_DIM] --dim DIM"
        " [--convention {tangent,cotangent}]",
        "schur": "schur [-h] [--json] [--max-dim MAX_DIM] --dim DIM [--partition PARTITION]",
        "certify": "certify [-h] [--json] [--max-dim MAX_DIM] --dim DIM [--mode MODE]"
        " [--target TARGET] [--assume ASSUME] [--all-p]",
        "check": "check [-h] [--json] [--max-dim MAX_DIM] [--mode MODE] target",
        "variety eval": "variety eval [-h] [--json] [--max-dim MAX_DIM] [--target TARGET]"
        " descriptor",
    }

    @pytest.mark.parametrize(
        "argv", [("--help",), ("-h",), ("chi", "--help"), ("check", "pn:2", "-h")]
    )
    def test_help_lists_each_commands_flags(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        first, *usage = out.splitlines()[: 1 + len(self.USAGE)]
        assert first == "usage: chigenus [-h] [--version] COMMAND ..."
        assert [line.strip() for line in usage] == [f"chigenus {u}" for u in self.USAGE.values()]
        assert "--flag VALUE or --flag=VALUE" in out

    def test_help_ignores_the_terminal_width(self, capsys, monkeypatch):
        wide = run_cli(capsys, "--help")
        monkeypatch.setenv("COLUMNS", "20")
        assert run_cli(capsys, "--help") == wide

    @pytest.mark.parametrize(
        "argv, message",
        [
            ((), f"missing command {COMMAND_LIST}"),
            (("nope",), f"unknown command 'nope' {COMMAND_LIST}"),
            (("variety",), f"unknown command 'variety' {COMMAND_LIST}"),
            (("chi", "--bogus"), "unknown flag '--bogus' for chi"),
            (("chi", "--di", "2"), "unknown flag '--di' for chi"),  # no prefix abbreviations
            (("chi", "--dim", "2", "--partition", "1"), "unknown flag '--partition' for chi"),
            (("chi", "--version"), "unknown flag '--version' for chi"),
            (("chi", "--dim", "2", "--dim", "3"), "--dim given twice"),
            (("chi", "--json", "--dim", "2", "--json"), "--json given twice"),
            (("check", "pn:2", "--mode=nef-tangent", "--mode", "nef-tangent"),
             "--mode given twice"),
            (("chi",), "chi needs --dim"),
            (("chi", "--dim"), "--dim needs a value"),
            (("chi", "--json=yes", "--dim", "2"), "--json takes no value"),
            (("check",), "check needs target"),
            (("variety", "eval", "--json"), "variety eval needs descriptor"),
            (("check", "pn:2", "pn:3"), "unexpected argument 'pn:3' for check"),
            (("chi", "3"), "unexpected argument '3' for chi"),
            (("chi", "--dim", "2", "--convention", "both"),
             "--convention: invalid choice 'both' (use tangent or cotangent)"),
            (("chi", "--dim=2", "--convention="),
             "--convention: invalid choice '' (use tangent or cotangent)"),
            (("chi", "--dim", "2", "--max-dim", "5", "--max-dim=6"), "--max-dim given twice"),
            (("chi", "--dim", "2", "--max_dim", "5"), "unknown flag '--max_dim' for chi"),
            (("chi", "--dim", "2", "--certify-max-dim", "5"),
             "unknown flag '--certify-max-dim' for chi"),
            (("chi", "--dim", "2", "--max-di", "5"), "unknown flag '--max-di' for chi"),
            (("chi", "--dim", "2", "--max-dim"), "--max-dim needs a value"),
        ],
    )
    def test_bad_command_line_is_one_error_line(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_flag_value_forms_agree(self, capsys):
        spaced = run_cli(capsys, "chi", "--dim", "3", "--convention", "tangent", "--json")
        joined = run_cli(capsys, "chi", "--dim=3", "--convention=tangent", "--json")
        assert spaced == joined and spaced[0] == 0


class TestPinnedOutputs:
    @pytest.mark.parametrize("command", sorted(OUTPUT_SHA256))
    def test_output_byte_identical(self, capsys, monkeypatch, command):
        monkeypatch.chdir(GOLDEN.parent.parent)
        code, out, err = run_cli(capsys, *command.split())
        digests = {
            "exit": code,
            "stdout": hashlib.sha256(out.encode()).hexdigest(),
            "stderr": hashlib.sha256(err.encode()).hexdigest(),
        }
        assert digests == OUTPUT_SHA256[command]
        if "--json" in command.split() and code != 2:  # one envelope, read back by json
            assert sorted(json.loads(out)) == [
                "command", "convention", "dimension", "payload", "toolVersion"
            ]


class TestDeterminism:
    def test_certify_json_byte_identical_across_processes(self):
        argv = [
            sys.executable, "-m", "chigenus",
            "certify", "--dim", "4", "--target", "chi:4",
            "--assume", "my4,c1top", "--json",
        ]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.strip()


# the strings `poly.json_text` writes: printable ASCII without '"' or '\\',
# which is every string a command prints, so none needs an escape
PLAIN_TEXT = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters='"\\'))
JSON_VALUES = st.recursive(
    PLAIN_TEXT | st.integers(-(10**100), 10**100) | st.booleans(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(PLAIN_TEXT, inner, max_size=4),
    max_leaves=12,
)


class TestJsonText:
    """`poly.json_text` writes what json.dumps(sort_keys=True) with compact
    separators writes, without loading `json`; a functional is checked
    against the oracle's term list, which shares no code with the writer."""

    @given(JSON_VALUES)
    @example({"say": "a 'b'", "path": "a/b", "tilde": "~", "": [True, -(10**100)]})
    def test_matches_json_dumps(self, value):
        assert json_text(value) == json.dumps(value, sort_keys=True, separators=(",", ":"))

    @pytest.mark.parametrize("value", [1.0, None, (1, 2), {"a": (1,)}, [None], {1: 2}])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            json_text(value)

    # one string for each class the writer has no escape for
    NEEDS_ESCAPE = {
        "non-ASCII": "caf\u00e9",
        "astral": "\U0001f600",
        "lone surrogate": "\ud800",
        "control": "a\nb",
        "DEL": "\x7f",
        "quote": 'a "b"',
        "backslash": "a\\b",
    }

    @pytest.mark.parametrize("text", NEEDS_ESCAPE.values(), ids=NEEDS_ESCAPE)
    def test_str_needing_an_escape_raises_as_value_and_key(self, text):
        with pytest.raises(TypeError, match="needs an escape"):
            json_text(text)
        with pytest.raises(TypeError, match="needs an escape"):
            json_text({text: 1})

    # edges of the functional case: the zero row, dimension 0 (whose one
    # monomial has no exponents), large and negative numerators over
    # denominators above 1, in both conventions
    FUNCTIONALS = {
        "zero row": (3, "cotangent", (0, 0, 0), 1),
        "dim 0": (0, "tangent", (-7,), 3),
        "dim 0 zero": (0, "cotangent", (0,), 1),
        "large": (2, "tangent", (-(10**60), 10**40 + 1), 6),
        "mixed": (4, "cotangent", (0, 3, -4, 0, 5), 10),
    }

    @pytest.mark.parametrize("fields", FUNCTIONALS.values(), ids=FUNCTIONALS)
    def test_functional_matches_json_dumps_of_its_dict_view(self, fields):
        f = ChernFunctional(*fields)
        view = GradedPoly(f.dimension, f.terms()).to_json_dict()
        assert json_text(f) == json.dumps(view, sort_keys=True, separators=(",", ":"))
        assert f.to_json_dict() == view

    @given(st.data())
    def test_seeded_functionals_match_json_dumps(self, data):
        n = data.draw(st.integers(0, 7))
        size = len(weight_basis(n))
        coefficient = st.integers(-(10**30), 10**30) | st.just(0)
        numerators = data.draw(st.lists(coefficient, min_size=size, max_size=size))
        den = data.draw(st.integers(1, 10**6))
        f = ChernFunctional(n, data.draw(st.sampled_from(BasisConvention)), numerators, den)
        view = GradedPoly(n, f.terms()).to_json_dict()
        shape = {"rows": [{"poly": f}, f], "x": 1}
        expected = {"rows": [{"poly": view}, view], "x": 1}
        for value, plain in ((f, view), (shape, expected)):
            assert json_text(value) == json.dumps(plain, sort_keys=True, separators=(",", ":"))
        assert json_view(shape) == expected


class TestPayloadsWithoutTermDicts:
    """A --json command writes its functionals straight to text, and what
    it prints is the library's dict view of the same payload."""

    COMMANDS = [
        "chi --dim 5 --json",
        "chi --dim 4 --json --convention tangent",
        "schur --dim 5 --json",
        "schur --dim 6 --partition 3,2,1 --json",
        "certify --dim 4 --target chi:4 --assume my4,c1top --json",
        "certify --dim 4 --target chi:4 --json",
        "certify --dim 4 --target -1*c1^4+4*c1^2*c2 --json",
        "certify --all-p --dim 5 --json",
        "certify --all-p --dim 4 --mode nef-tangent --json",
        "check tests/data/corpus.jsonl --json",
        "check tests/data/corpus.jsonl --mode nef-tangent --json",
        "check pn:3 --json",
        "variety eval product(pn:1,curve:2) --json",
        "variety eval pn:2 --target chi:1 --json",
        # the text lines read the shapes, not the views
        "check tests/data/corpus.jsonl",
        "certify --dim 4 --target chi:4 --assume my4,c1top",
    ]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_term_dict_is_built(self, capsys, monkeypatch, command):
        def refuse(value):
            raise AssertionError("a command built a dict view")

        # the one module that binds the view: every `to_json_dict` calls it there
        monkeypatch.setattr(poly, "json_view", refuse)
        monkeypatch.chdir(GOLDEN.parent.parent)  # corpus paths are relative to the repository root
        code, out, err = run_cli(capsys, *command.split())
        assert code in (0, 1) and err == ""
        assert json.loads(out)["payload"] if "--json" in command else out

    @pytest.mark.parametrize("convention", ["cotangent", "tangent"])
    @pytest.mark.parametrize("n", range(10))
    def test_chi_payload_is_the_table_view(self, capsys, n, convention):
        argv = ["chi", "--dim", str(n), "--json", "--max-dim", "9", "--convention", convention]
        _, out, _ = run_cli(capsys, *argv)
        rows = [row.in_convention(BasisConvention(convention)) for row in chi_table(n)]
        assert json.loads(out)["payload"] == {
            "convention": convention,
            "dim": n,
            "rows": [{"p": p, "poly": row.to_json_dict()} for p, row in enumerate(rows)],
        }

    @pytest.mark.parametrize("n", range(10))
    def test_schur_payload_is_the_generators_view(self, capsys, n):
        _, out, _ = run_cli(capsys, "schur", "--dim", str(n), "--json", "--max-dim", "9")
        generators = [
            {"name": partition_label(a), "poly": schur(a, n).to_json_dict()}
            for a in partitions_of(n)
        ]
        assert json.loads(out)["payload"] == {"generators": generators}

    @pytest.mark.parametrize("mode", ["nef-cotangent", "nef-tangent"])
    @pytest.mark.parametrize("n", range(1, 8))
    def test_all_p_payload_is_the_report_view(self, capsys, n, mode):
        argv = ["certify", "--all-p", "--dim", str(n), "--mode", mode, "--json"]
        _, out, _ = run_cli(capsys, *argv)
        report = certify_chi_signs(n, mode.replace("-", "_"))
        assert json.loads(out)["payload"] == report.to_json_dict()


DATA = pathlib.Path(__file__).parent / "data"


def printed(value):
    """What `poly.json_text` writes for a value, read by the stdlib's
    reader, which shares no code with `poly.parse_json`."""
    return json.loads(json_text(value))


def assumption_sets(n):
    """Every set of opt-in tags that `generators` takes in dimension n."""
    tags = [tag for tag in ASSUMPTION_TAGS if tag not in ("my2", "my4") or tag == f"my{n}"]
    return [
        tuple(tag for k, tag in enumerate(tags) if mask >> k & 1) for mask in range(2 ** len(tags))
    ]


def without_schur(catalog, tags):
    """The opt-in rows of a catalog alone, and a solver over them.  No
    `GeneratorSet` holds them without the Schur family, so the solver asks
    the simplex directly and returns its answer as `certify` would."""
    rows = catalog.functionals()[len(catalog) - len(tags) :]

    def solve(target):
        columns = [(f.numerators, f.denominator) for f in rows]
        status, numerators, den = _phase_one(columns, (target.numerators, target.denominator))
        if status == "feasible":
            return Certificate(target, tags, numerators, den)
        return Infeasibility(ChernFunctional(target.dimension, target.convention, numerators, den))

    return rows, solve


class TestViewsAreThePrintedText:
    """Every `to_json_dict()` is what `json_text` writes for its record,
    read back, and a command prints the records whose views the library
    hands out."""

    @pytest.mark.parametrize("n", range(10))
    def test_chi_tables(self, n):
        for row in chi_table(n):
            for f in (row, row.flipped()):
                assert f.to_json_dict() == printed(f)

    @pytest.mark.parametrize("mode", SIGN_MODES)
    @pytest.mark.parametrize("n", range(1, 8))
    def test_sign_reports(self, n, mode):
        for tags in assumption_sets(n):
            report = certify_chi_signs(n, mode, tags)
            _, solve = without_schur(generators(n, tags, report.convention), tags)
            rows = tuple(
                ChiSignRow(row.p, row.sign, row.scale, row.target, solve(row.target))
                for row in report.rows
            )
            for shown in (ChiSignReport(n, mode, tuple(sorted(tags)), rows), report):
                view = shown.to_json_dict()
                assert view == printed(shown), tags
                assert view["rows"] == [row.to_json_dict() for row in shown.rows]

    def test_seeded_inline_results(self):
        # half of the targets are in the cone by construction
        rng = random.Random(20261020)
        compared = certified = 0
        for n in range(1, 7):
            for convention in BasisConvention:
                for tags in assumption_sets(n):
                    catalog = generators(n, tags, convention)
                    # the opt-in rows alone, then the whole catalog
                    whole = catalog.functionals(), lambda target: certify(target, catalog)
                    for rows, solve in (without_schur(catalog, tags), whole):
                        columns = [f.numerators for f in rows]
                        size = len(weight_basis(n))
                        for k in range(6):
                            if k % 2 and columns:
                                weights = [rng.randint(0, 3) for _ in columns]
                                rhs = [sum(map(mul, weights, row)) for row in zip(*columns)]
                            else:
                                rhs = [rng.randint(-4, 4) for _ in range(size)]
                            result = solve(ChernFunctional(n, convention, rhs, 1))
                            assert result.to_json_dict() == printed(result), (n, tags, rhs)
                            compared += 1
                            certified += isinstance(result, Certificate)
        assert compared >= 200 and 0 < certified < compared

    @pytest.mark.parametrize("corpus", ["corpus.jsonl", "products.jsonl"])
    def test_corpus_descriptors_and_audits(self, corpus):
        for entry in load_corpus(DATA / corpus):
            assert entry.descriptor.to_json_dict() == printed(entry.descriptor), entry.name
            for mode in SIGN_MODES:
                audit = check_signs(entry.descriptor, mode)
                assert audit.to_json_dict() == printed(audit), (entry.name, mode)

    def test_a_record_without_a_shape_has_no_view(self):
        entry = load_corpus(DATA / "corpus.jsonl")[0]
        for record in (generators(2), entry):
            with pytest.raises(TypeError, match=f"no JSON form for {type(record).__name__}"):
                record.to_json_dict()

    @pytest.mark.parametrize("mode", ["nef-cotangent", "nef-tangent"])
    @pytest.mark.parametrize("corpus", ["corpus.jsonl", "products.jsonl"])
    def test_check_payload_is_the_audits_views(self, capsys, corpus, mode):
        _, out, _ = run_cli(capsys, "check", str(DATA / corpus), "--mode", mode, "--json")
        entries = load_corpus(DATA / corpus)
        audits = [check_signs(entry.descriptor, mode.replace("-", "_")) for entry in entries]
        assert json.loads(out)["payload"]["audits"] == [a.to_json_dict() for a in audits]

    @pytest.mark.parametrize(
        "argv",
        [
            ("product(pn:1,curve:2)",),
            ("pn:2", "--target", "chi:1"),
            ("product(pn:2,product(curve:2,pn:2))", "--target", "euler"),
        ],
    )
    def test_eval_payload_holds_the_descriptor_view(self, capsys, argv):
        _, out, _ = run_cli(capsys, "variety", "eval", *argv, "--json")
        descriptor = descriptor_from_token(argv[0])
        assert json.loads(out)["payload"]["descriptor"] == descriptor.to_json_dict()


# `cli.run()` ends the process at `os._exit`; a child script that goes on
# after `runpy` starts with this, which turns that exit into a SystemExit
RAISE_AT_EXIT = "import os\ndef _exit(code):\n    raise SystemExit(code)\nos._exit = _exit\n"


class TestStartup:
    # `dataclasses` imports `inspect` (and with it `ast`) and generates each
    # class's methods with `exec`; together about a quarter of a cold command.
    # The value classes are `poly.Record`s, so no command needs either module.
    REPORT = "print(sorted(set(sys.modules) & {'dataclasses', 'inspect'}))"

    @pytest.mark.parametrize(
        "code",
        [
            "import sys\nimport chigenus.cli\n",
            # what `python -m chigenus --version` runs
            RAISE_AT_EXIT + "import runpy, sys\n"
            "sys.argv = ['chigenus', '--version']\n"
            "try:\n"
            "    runpy.run_module('chigenus', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0\n",
        ],
        ids=["import", "version"],
    )
    def test_start_up_imports_neither_dataclasses_nor_inspect(self, code):
        result = subprocess.run(
            [sys.executable, "-c", code + self.REPORT], capture_output=True, text=True, check=True
        )
        assert result.stdout.splitlines()[-1] == "[]", result.stdout

    def test_a_submodule_read_as_an_attribute_loads_on_first_read(self):
        # in this process every submodule is loaded already, so the hook's
        # submodule branch runs only in a fresh interpreter
        code = (
            "import sys\nimport chigenus\n"
            "print('chigenus.cone' in sys.modules)\n"
            "print(callable(chigenus.cone.generators))\n"
            "print('chigenus.cone' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert result.stdout.split() == ["False", "True", "True"], result.stdout

    # Each command imports only the mathematics it runs, and no command line
    # loads the standard modules of the former argparse parser.  Which
    # standard modules `site` loads depends on the host, so the child
    # compares with the set present when its script starts.
    PARSER_MODULES = {"argparse", "gettext", "locale", "textwrap"}
    ENTRY = {"chigenus.cli"}
    CHI = {"chigenus.poly", "chigenus.symchern", "chigenus.hrr"}
    LOADS = [
        (("--version",), set()),
        (("--help",), set()),
        (("chi",), set()),  # refused by the parser: --dim is required
        (("nope",), set()),  # refused by the parser: no such command
        (("chi", "--dim", "0_3"), {"chigenus.poly"}),  # refused by --dim's converter
        (("chi", "--dim", "3", "--json"), CHI),
        (("schur", "--dim", "3", "--json"), {"chigenus.poly", "chigenus.symchern"}),
        (("certify", "--dim", "3", "--all-p"), CHI | {"chigenus.cone"}),
        (("certify", "--dim", "2", "--target", "chi:1"), CHI | {"chigenus.cone"}),
        # a recipe leaf's chi_y is a closed form: no Kostka solve
        (("check", "pn:3"), {"chigenus.poly", "chigenus.hrr", "chigenus.varieties"}),
        (("variety", "eval", "pn:2", "--json"), {"chigenus.poly", "chigenus.hrr", "chigenus.varieties"}),
        # an explicit leaf pairs its Chern numbers with a chi table
        (("check", "tests/data/products.jsonl"), CHI | {"chigenus.varieties"}),
    ]

    @classmethod
    def modules_after(cls, argv, after=""):
        """The chigenus modules a command line, then the statement `after`,
        load, and every module they add."""
        return cls.probe(argv, after)[2:]

    @staticmethod
    def probe(argv, after=""):
        """A command line's exit code and stderr lines, then the chigenus
        modules it and the statement `after` load, and every module they
        add."""
        script = RAISE_AT_EXIT + (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import runpy\n"
            f"sys.argv = ['chigenus', *{list(argv)!r}]\n"
            "code = None\n"
            "try:\n"
            "    runpy.run_module('chigenus', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            f"{after}\n"
            "print(code, sorted(m for m in sys.modules if m.startswith('chigenus.')),\n"
            "      sorted(set(sys.modules) - before), sep='\\n', file=sys.stderr)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=30,
            cwd=GOLDEN.parent.parent,  # corpus paths are relative to the repository root
        )
        *err, code, loaded, added = result.stderr.splitlines()
        loaded, added = set(ast.literal_eval(loaded)), set(ast.literal_eval(added))
        return ast.literal_eval(code), err, loaded, added

    @pytest.mark.parametrize("argv, expected", LOADS, ids=[" ".join(a) for a, _ in LOADS])
    def test_command_loads_only_its_modules(self, argv, expected):
        loaded, added = self.modules_after(argv)
        assert loaded == self.ENTRY | expected
        assert not self.PARSER_MODULES & added, added

    # Rows are integers over one denominator from the chi_y series and the
    # Kostka matrix through the simplex to the printed text, and chi values
    # and Euler numbers are integers over one denominator from the leaves of
    # a product up, so no command loads `fractions` (and with it `decimal`
    # and `numbers`).  A library call that hands out Fractions loads them,
    # which shows that the probe sees the modules.
    FRACTION_MODULES = {"fractions", "decimal", "numbers"}
    COMMANDS = [
        ("chi", "--dim", "4"),
        ("chi", "--dim", "3", "--convention", "tangent"),
        ("schur", "--dim", "4"),
        ("schur", "--dim", "4", "--partition", "2,1,1"),
        ("certify", "--dim", "4", "--target", "chi:4", "--assume", "my4,c1top"),  # certified
        ("certify", "--dim", "4", "--target", "chi:4"),  # a Farkas witness
        ("certify", "--dim", "2", "--target", "1/3*c1^2 - 2/7*c2", "--mode", "nef-tangent"),
        ("certify", "--dim", "4", "--all-p", "--assume", "my4"),
        ("certify", "--dim", "5", "--all-p", "--mode", "nef-tangent"),
        ("check", "pn:3"),
        ("check", "product(pn:2,product(curve:2,pn:2))", "--mode", "nef-tangent"),
        ("check", "tests/data/products.jsonl"),  # products and explicit leaves
        ("check", "surface:9:3"),
        ("variety", "eval", "pn:2"),
        ("variety", "eval", "product(pn:1,hypersurface:5:4)", "--target", "euler"),
    ]
    ARGVS = [argv + flag for argv in COMMANDS for flag in ((), ("--json",))]

    @pytest.mark.parametrize("argv", ARGVS, ids=[" ".join(a) for a in ARGVS])
    def test_commands_load_no_fractions(self, argv):
        _, added = self.modules_after(argv)
        assert not self.FRACTION_MODULES & added, added

    def test_a_library_call_loads_fractions(self):
        # the positive control: after a command, `chi_values` hands its
        # caller Fractions
        after = "import chigenus; chigenus.chi_values(chigenus.descriptor_from_token('pn:2'))"
        _, added = self.modules_after(("variety", "eval", "pn:2"), after)
        assert self.FRACTION_MODULES <= added, added

    # JSON is written by `poly.json_text` and read by `poly.parse_json` with
    # `json`'s C scanner alone, so no command loads the `json` package, and
    # only reading a corpus loads `_json`; that run shows the probe sees it.
    # A refusal may load `json.decoder` for its error.
    JSON_MODULES = {"json", "json.decoder", "json.encoder", "json.scanner", "_json"}
    JSON_PACKAGE = JSON_MODULES - {"_json"}
    WRITERS = [
        ("chi", "--dim", "4"),
        ("schur", "--dim", "4"),
        ("certify", "--dim", "4", "--target", "chi:4"),
        ("certify", "--dim", "4", "--all-p"),
        ("variety", "eval", "product(pn:1,curve:2)"),
        ("check", "pn:3"),
    ]
    WRITER_ARGVS = [argv + flag for argv in WRITERS for flag in ((), ("--json",))]

    @pytest.mark.parametrize("argv", WRITER_ARGVS, ids=[" ".join(a) for a in WRITER_ARGVS])
    def test_commands_load_no_json(self, argv):
        _, added = self.modules_after(argv)
        assert not self.JSON_MODULES & added, added

    def test_reading_a_corpus_loads_only_the_scanner(self):
        _, added = self.modules_after(("check", "tests/data/corpus.jsonl", "--json"))
        assert "_json" in added and not self.JSON_PACKAGE & added, added

    # a refusal by the scanner itself (a missing comma or colon, a control
    # character in a string), with no value, with extra data, and by a hook
    REFUSED_LINES = [
        '{"name": "p" "descriptor": {"type": "pn", "n": 2}}',
        '{"name": "p", "descriptor": {"type": "pn", "n" 2}}',
        '{"name": "p\x01", "descriptor": {"type": "pn", "n": 2}}',
        '{"name": "p", "descriptor": }',
        '{"name": "p", "descriptor": {"type": "pn", "n": 2}} {}',
        '\x0c{"name": "p", "descriptor": {"type": "pn", "n": 2}}',
        '{"name": "p", "descriptor": {"type": "pn", "n": 2, "n": 3}}',
        '{"name": "p", "descriptor": {"type": "pn", "n": NaN}}',
    ]

    @pytest.mark.parametrize("line", REFUSED_LINES)
    def test_a_refused_corpus_line_exits_two_with_one_line(self, tmp_path, line):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(line + "\n")
        with pytest.raises(ValueError) as refusal:
            json_loads_parse(line)
        code, err, _, added = self.probe(("check", str(corpus)))
        assert (code, err) == (2, [f"error: bad corpus line 1: {refusal.value}"])
        assert "_json" in added, added

    def test_every_export_is_its_home_modules_object(self):
        import importlib

        import chigenus

        for name in chigenus.__all__:
            home = chigenus._HOMES.get(name)
            module = chigenus if home is None else importlib.import_module(f"chigenus.{home}")
            assert getattr(chigenus, name) is vars(module)[name], name
        star: dict = {}
        exec("from chigenus import *", star)
        assert {name: star[name] for name in chigenus.__all__} == {
            name: getattr(chigenus, name) for name in chigenus.__all__
        }
        assert chigenus.hrr.SIGN_MODES is chigenus.SIGN_MODES
        assert chigenus.cone.ASSUMPTION_TAGS is chigenus.ASSUMPTION_TAGS
        with pytest.raises(AttributeError):
            chigenus.no_such_name

    def test_submodules_resolve_after_a_bare_import(self):
        code = "import chigenus\nprint(chigenus.varieties.chern_numbers is chigenus.chern_numbers)"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=30
        )
        assert result.stdout == "True\n"


class TestExitContract:
    # `python -m chigenus` goes through `cli.run()`, which ends the process at
    # `os._exit` once `main` returns; that must not change a byte of output
    # or an exit code, and `main()` itself must leave the collector alone for
    # callers that stay in the process.
    EXITS = [
        (("--version",), 0),
        (("--help",), 0),
        (("chi", "--dim", "3", "--json"), 0),
        (("chi", "--dim", "99"), 2),
        (("chi", "--dim", "0_3"), 2),  # refused by the parser inside main
        (("schur", "--dim", "4", "--partition", "2,1,1"), 0),
        (("certify", "--dim", "4", "--all-p", "--json"), 1),
        (("certify", "--dim", "4", "--target", "chi:4", "--assume", "my4,c1top"), 0),
        (("certify", "--dim", "2", "--target", "chi:1", "--json"), 1),
        (("check", "pn:9", "--max-dim", "9"), 1),
        (("check", "tests/data/products.jsonl"), 1),
        (("variety", "eval", "product(pn:1,hypersurface:5:4)", "--target", "euler", "--json"), 0),
    ]

    @pytest.fixture
    def env(self, monkeypatch):
        # help text is static: a narrow terminal must not change a byte of it
        monkeypatch.setenv("COLUMNS", "20")
        # a block-buffered stdout must still be flushed at exit
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        # corpus paths are relative to the repository root, here and in the child
        monkeypatch.chdir(GOLDEN.parent.parent)
        return dict(os.environ)

    @pytest.mark.parametrize("argv, expected", EXITS, ids=[" ".join(a) for a, _ in EXITS])
    def test_console_entry_matches_main(self, capsysbinary, env, argv, expected):
        code = main(list(argv))
        captured = capsysbinary.readouterr()
        result = subprocess.run(
            [sys.executable, "-m", "chigenus", *argv], capture_output=True, env=env, timeout=30
        )
        assert code == expected
        assert (result.stdout, result.stderr, result.returncode) == (
            captured.out,
            captured.err,
            code,
        )
        if argv == ("chi", "--dim", "99"):
            assert result.stderr == b"error: --dim must be within 0..8\n"

    @pytest.mark.parametrize("argv", [("chi", "--dim", "2"), ("--version",), ("chi", "--dim", "0_3")])
    def test_main_leaves_the_collector_alone(self, capsys, argv):
        main(list(argv))
        assert gc.isenabled()
        assert gc.get_freeze_count() == 0

    # a hook registered before the command prints to stderr if it runs
    HOOKED = (
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'atexit hook ran', file=sys.stderr)\n"
        "sys.argv = ['chigenus', *{argv!r}]\n"
        "runpy.run_module('chigenus', run_name='__main__', alter_sys=True)\n"
    )

    # chi --dim 8 --json does not fit the 8 KiB buffer of a piped stdout
    @pytest.mark.parametrize(
        "argv", [("chi", "--dim", "8", "--json"), ("--version",), ("chi", "--dim", "0_3")]
    )
    def test_run_ends_at_mains_last_write(self, capsysbinary, env, argv):
        code = main(list(argv))
        captured = capsysbinary.readouterr()
        script = self.HOOKED.format(argv=list(argv))
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, env=env, timeout=30
        )
        assert (result.returncode, result.stdout, result.stderr) == (
            code,
            captured.out,
            captured.err,
        )

    def test_the_hook_runs_if_the_interpreter_shuts_down(self, env):
        # the positive control: once `os._exit` raises, the hook runs
        script = RAISE_AT_EXIT + self.HOOKED.format(argv=["--version"])
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=30
        )
        assert (result.returncode, result.stderr) == (0, "atexit hook ran\n")

    # output that cannot be written is one error line and exit 2, whether
    # stdout is buffered or not and whether the text fits the 8 KiB buffer
    # (chi --dim 8 --json does not) or not
    CLOSED = [
        ("--version",),
        ("chi", "--dim", "3"),
        ("chi", "--dim", "8", "--json"),
        ("certify", "--all-p", "--dim", "4", "--json"),
    ]
    ERRORS = {
        "pipe": "error: [Errno 32] Broken pipe\n",
        "full": "error: [Errno 28] No space left on device\n",
    }

    @staticmethod
    def run_closed(env, argv, unbuffered, stdout, stderr=subprocess.PIPE):
        if unbuffered:
            env = {**env, "PYTHONUNBUFFERED": "1"}
        return subprocess.run(
            [sys.executable, "-m", "chigenus", *argv],
            stdout=stdout,
            stderr=stderr,
            env=env,
            timeout=30,
        )

    @staticmethod
    def closed_pipe() -> int:
        """The write end of a pipe whose read end is closed."""
        read, write = os.pipe()
        os.close(read)
        return write

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("sink", ["pipe", "full"])
    @pytest.mark.parametrize("argv", CLOSED, ids=[" ".join(a) for a in CLOSED])
    def test_unwritable_stdout_is_one_error_line(self, env, argv, sink, unbuffered):
        if sink == "full" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this system")
        stdout = self.closed_pipe() if sink == "pipe" else os.open("/dev/full", os.O_WRONLY)
        try:
            result = self.run_closed(env, argv, unbuffered, stdout)
        finally:
            os.close(stdout)
        assert (result.returncode, result.stderr.decode()) == (2, self.ERRORS[sink])

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", CLOSED, ids=[" ".join(a) for a in CLOSED])
    def test_unwritable_stdout_and_stderr_exit_two(self, env, argv, unbuffered):
        both = self.closed_pipe()
        try:
            result = self.run_closed(env, argv, unbuffered, both, both)
        finally:
            os.close(both)
        assert result.returncode == 2
