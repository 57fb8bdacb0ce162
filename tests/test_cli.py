import hashlib
import json
import pathlib
import subprocess
import sys

import pytest

from chigenus import __version__
from chigenus.cli import main
from chigenus.cone import Certificate, certify, generators
from chigenus.hrr import ChiTable, chi_p, chi_table, top_part
from chigenus.poly import GradedPoly
from chigenus.symchern import BasisConvention

GOLDEN = pathlib.Path(__file__).parent / "golden"
# SHA-256 of the stdout of each `chi --json` command, recorded before the
# chi^p rows were computed from one chi_y series (n = 5..9) and before they
# were computed by the monomial-to-elementary transition matrix (n = 10..12)
CHI_JSON_SHA256 = json.loads((GOLDEN / "chi_json_sha256.json").read_text())
# the same for `schur --json`, recorded before the catalog was computed by
# inverting the Kostka matrix
SCHUR_JSON_SHA256 = json.loads((GOLDEN / "schur_json_sha256.json").read_text())


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
        assert ChiTable.from_json_dict(payload) == chi_table(3)

    def test_dim_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "chi", "--dim", "9")
        assert code == 2
        assert "error" in err

    def test_max_dim_flag(self, capsys):
        code, _, _ = run_cli(capsys, "chi", "--dim", "9", "--max-dim", "9")
        assert code == 0

    @pytest.mark.parametrize("command", sorted(CHI_JSON_SHA256))
    def test_json_tables_byte_identical(self, capsys, command):
        code, out, _ = run_cli(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == CHI_JSON_SHA256[command]


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

    @pytest.mark.parametrize("command", sorted(SCHUR_JSON_SHA256))
    def test_json_catalog_byte_identical(self, capsys, command):
        code, out, _ = run_cli(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SCHUR_JSON_SHA256[command]

    def test_bad_partition(self, capsys):
        code, _, err = run_cli(capsys, "schur", "--dim", "3", "--partition", "1,2")
        assert code == 2
        assert "error" in err

    def test_signed_partition_part_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "schur", "--dim", "3", "--partition", "+2,1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

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

    def test_malformed_target_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "certify", "--dim", "3", "--target", "chi:7")
        assert code == 2
        code, _, err = run_cli(capsys, "certify", "--dim", "3", "--target", "c9*c1")
        assert code == 2
        code, _, err = run_cli(
            capsys, "certify", "--dim", "3", "--target", "1 + 1*c3"
        )
        assert code == 2  # not homogeneous of top weight

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

    def test_json_certificate_reparses(self, capsys):
        _, out, _ = run_cli(
            capsys, "certify", "--dim", "4", "--target", "chi:4",
            "--assume", "my4,c1top", "--json",
        )
        envelope = json.loads(out)
        payload = envelope["payload"]
        assert payload["status"] == "certified"
        target = GradedPoly.from_json_dict(payload["certificate"]["target"])
        cleared, _ = chi_p(4, 4).clear_denominators()
        assert target == cleared.as_poly()
        # re-run certify in-process and compare coefficient maps
        gens = generators(4, ("schur", "my4", "c1top"))
        result = certify(top_part(target, BasisConvention.COTANGENT), gens)
        assert isinstance(result, Certificate)
        expected_terms = [
            {"coef": str(c), "gen": name} for name, c in result.named_coefficients()
        ]
        assert payload["certificate"]["terms"] == expected_terms


class TestCheckCommand:
    def test_builtin_pn3(self, capsys):
        code, out, _ = run_cli(capsys, "check", "pn:3", "--mode", "nef-tangent")
        assert code == 0
        assert "verdict: pass" in out

    def test_builtin_abelian(self, capsys):
        code, out, _ = run_cli(capsys, "check", "abelian:2", "--mode", "nef-cotangent")
        assert code == 0
        assert "p=0 chi=0 signed=0 ok" in out

    def test_surface_flags(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "surface", "--c1sq", "9", "--c2", "3",
            "--mode", "nef-cotangent",
        )
        assert code == 0
        assert "p=1 chi=-1 signed=1 ok" in out

    def test_surface_missing_flags(self, capsys):
        code, _, err = run_cli(capsys, "check", "surface")
        assert code == 2

    def test_failing_audit_exit_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "surface", "--c1sq", "100", "--c2", "1",
            "--mode", "nef-cotangent",
        )
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

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "pn:2", "--c1sq", "3", "--c2", "4"),
            ("check", "curve:2", "--c2", "4"),
            ("check", "{corpus}", "--c1sq", "9"),
        ],
    )
    def test_surface_fields_only_with_surface(self, capsys, corpus_path, argv):
        argv = [str(corpus_path) if arg == "{corpus}" else arg for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: --c1sq and --c2 apply only to the 'surface' target\n"

    def test_unknown_token(self, capsys):
        code, _, err = run_cli(capsys, "check", "blah:3")
        assert code == 2

    @pytest.mark.parametrize(
        "line",
        [
            '{"name":"s","descriptor":{"type":"surface","c1sq":9.5,"c2":3}}',
            '{"name":"s","descriptor":{"type":"surface","c1sq":"a","c2":null}}',
            '{"name":"h","descriptor":{"type":"hypersurface","degree":true,"ambient":3}}',
            '{"name":"e","descriptor":{"type":"explicit","n":2,"values":[1]}}',
            '{"name":"e","descriptor":{"type":"explicit","n":2,"values":{"c2":null}}}',
            '{"name":"e","descriptor":{"type":"explicit","n":2,"values":{"c1":1}}}',
            '{"name":"e","descriptor":{"type":"explicit","n":99,"values":{"c1":1}}}',
            '{"name":"e","descriptor":{"type":"explicit","n":99,"values":{"2*c99":1}}}',
            '{"name":"e","descriptor":{"type":"explicit","n":2,"values":{"c1^2":"1","c1*c1":"2"}}}',
            '{"name":"e","descriptor":{"type":"explicit","n":2,"values":{"c1*c1":"2","c1^2":"1"}}}',
            "[1]",
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

    @pytest.mark.parametrize(
        "descriptor",
        [
            {"type": "explicit", "n": 99},
            {"type": "explicit", "n": 99, "values": {"c1^99": 1, "c1*c98": "-3/2"}},
        ],
    )
    def test_large_explicit_dimension_refused_quickly(self, tmp_path, descriptor):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"name": "x", "descriptor": descriptor}) + "\n")
        argv = [sys.executable, "-m", "chigenus", "check", str(corpus)]
        result = subprocess.run(argv, capture_output=True, text=True, timeout=10)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            "error: descriptor explicit:99 exceeds maximum dimension 8\n"
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


class TestDeepNesting:
    """Nesting deeper than the interpreter's recursion limit is malformed
    input, not an engine failure."""

    def test_deep_product_token(self, capsys):
        token = "product(" * 1200 + "pn:1" + ",pn:1)" * 1200
        code, out, err = run_cli(capsys, "variety", "eval", token)
        assert code == 2
        assert out == ""
        assert err == "error: product token nests too deeply\n"

    def test_deep_corpus_descriptor(self, capsys, tmp_path):
        pn = '{"type":"pn","n":1}'
        descriptor = '{"type":"product","left":' * 5000 + pn + (',"right":' + pn + "}") * 5000
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"name":"deep","descriptor":' + descriptor + "}\n")
        code, out, err = run_cli(capsys, "check", str(corpus))
        assert code == 2
        assert out == ""
        assert err.startswith("error: bad corpus line 1: ")
        assert err.count("\n") == 1


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

    def test_eval_computes_chern_numbers_once(self, capsys, monkeypatch):
        import chigenus.cli as cli
        from chigenus.varieties import chern_numbers

        calls = []

        def counting(v, convention):
            calls.append(v.name())
            return chern_numbers(v, convention)

        monkeypatch.setattr(cli, "chern_numbers", counting)
        code, out, _ = run_cli(capsys, "variety", "eval", "product(pn:1,product(curve:2,pn:2))")
        assert code == 0
        assert calls == ["product(pn:1,product(curve:2,pn:2))"]
        assert out.splitlines()[-1] == "euler = -12"


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

    def test_config_raises_limit(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_dim": 9}))
        monkeypatch.setenv("CHIGENUS_CONFIG", str(config))
        code, _, _ = run_cli(capsys, "variety", "eval", "pn:9")
        assert code == 0
        code, _, _ = run_cli(capsys, "check", "pn:9", "--mode", "nef-tangent")
        assert code == 0
        code, _, _ = run_cli(capsys, "check", "pn:10")
        assert code == 2

    def test_config_limit_reaches_certify(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_dim": 2}))
        monkeypatch.setenv("CHIGENUS_CONFIG", str(config))
        code, _, err = run_cli(capsys, "certify", "--dim", "3", "--target", "chi:3")
        assert code == 2
        assert err == "error: --dim must be within 1..2\n"
        code, _, _ = run_cli(capsys, "certify", "--dim", "2", "--target", "chi:2")
        assert code == 0

    @pytest.mark.parametrize("key", ["certify_max_dim", "max-dim"])
    def test_config_rejects_unknown_key(self, capsys, tmp_path, monkeypatch, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_dim": 8, key: 9}))
        monkeypatch.setenv("CHIGENUS_CONFIG", str(config))
        for flags in ((), ("--max-dim", "8")):
            code, out, err = run_cli(
                capsys, "certify", "--dim", "3", "--target", "chi:3", *flags
            )
            assert code == 2
            assert out == ""
            assert err == f"error: unknown config key {key!r} (the only key is 'max_dim')\n"

    @pytest.mark.parametrize("bad", [True, False, -1, 9.0, "9"])
    def test_config_rejects_non_integer_limit(self, capsys, tmp_path, monkeypatch, bad):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_dim": bad}))
        monkeypatch.setenv("CHIGENUS_CONFIG", str(config))
        code, out, err = run_cli(capsys, "chi", "--dim", "0")
        assert code == 2
        assert out == ""
        assert err == "error: config key 'max_dim' must be a non-negative integer\n"


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
        code, out, err = run_cli(capsys, *inside, "--max-dim", "-1")
        assert (code, out, err) == (2, "", "error: --max-dim must be a non-negative integer\n")

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (("chi", "--dim", "0_3"), "0_3"),
            (("chi", "--dim", "\u0663"), "\u0663"),
            (("schur", "--dim", "+3"), "+3"),
            (("certify", "--dim", " 3", "--all-p"), " 3"),
            (("chi", "--dim", "2", "--max-dim", "1_0"), "1_0"),
            (("variety", "eval", "pn:2", "--max-dim", "9 "), "9 "),
            (("check", "surface", "--c1sq", " +9", "--c2", "3"), " +9"),
            (("check", "surface", "--c1sq", "9", "--c2", "3_0"), "3_0"),
        ],
    )
    def test_numeric_flags_take_plain_decimals(self, capsys, argv, bad):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(f"invalid int value: {bad!r}")

    # the shared flags come first, from the parent parsers that declare them
    USAGE = {
        "chi": "chi [-h] [--json] [--max-dim MAX_DIM] --dim DIM"
        " [--convention {tangent,cotangent}]",
        "schur": "schur [-h] [--json] [--max-dim MAX_DIM] --dim DIM [--partition PARTITION]",
        "certify": "certify [-h] [--json] [--max-dim MAX_DIM] --dim DIM [--mode MODE]"
        " [--target TARGET] [--assume ASSUME] [--all-p]",
        "check": "check [-h] [--json] [--max-dim MAX_DIM] [--mode MODE] [--c1sq C1SQ]"
        " [--c2 C2] target",
        "variety eval": "variety eval [-h] [--json] [--max-dim MAX_DIM] [--target TARGET]"
        " descriptor",
    }

    @pytest.mark.parametrize("command", sorted(USAGE))
    def test_usage_line(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), "--bogus"])
        *usage, last = capsys.readouterr().err.splitlines()
        assert exc.value.code == 2
        assert " ".join(" ".join(usage).split()) == f"usage: chigenus {self.USAGE[command]}"
        assert last.startswith(f"chigenus {command}: error: ")


class TestConfigFile:
    def test_config_raises_then_overridden(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_dim": 9}))
        monkeypatch.setenv("CHIGENUS_CONFIG", str(config))
        code, _, _ = run_cli(capsys, "chi", "--dim", "9")
        assert code == 0
        monkeypatch.delenv("CHIGENUS_CONFIG")
        code, _, _ = run_cli(capsys, "chi", "--dim", "9")
        assert code == 2

    def test_broken_config(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        monkeypatch.setenv("CHIGENUS_CONFIG", str(config))
        code, _, err = run_cli(capsys, "chi", "--dim", "2")
        assert code == 2


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
