"""Tests of the benchmark itself: the exact checker, the self-time
accounting, the seeded inputs and the contract of run.py.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from check import CheckFailure, check_op, chi_y, schur
from layers import PER_LAYER, OpTrace
from loop import run_cold
from run import END_TO_END, REFERENCES, ROOT, SCRATCH, Child, Verifier, child_env, cli_argv, required_references, tail
from workloads import REFERENCE_SECONDS, WORKLOADS, Descriptor, Op, _product, generate, rounds_for

sys.path.insert(0, str(ROOT / "src"))
import chigenus  # noqa: E402  (only to cross-check the checker's own arithmetic)


def run_op(op: Op) -> Child:
    code, wall, cpu, rss, out, err = run_cold(cli_argv(op), child_env())
    return Child(code, wall, cpu, rss, out, err)


def canonical(data: dict) -> bytes:
    return (json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n").encode()


def failure_of(op: Op, child: Child) -> str:
    with pytest.raises(CheckFailure) as info:
        check_op(op, child.returncode, child.stdout)
    return str(info.value)


# -- the checker's own arithmetic agrees with the program --------------------------


def test_schur_by_laplace_expansion():
    assert schur((2, 1, 0), 3) == {(1, 1, 0): 1, (0, 0, 1): -1}
    for n in range(1, 7):
        for parts in chigenus.partitions_of(n):
            assert schur(parts, n) == chigenus.schur(parts, n).terms()


def test_closed_forms_match_corpus_and_program():
    quintic = Descriptor("hypersurface", (5, 4))
    assert chi_y(quintic) == ([0, 100, -100, 0], -200)
    assert chi_y(Descriptor("hypersurface", (1, 5)))[0] == [1, -1, 1, -1, 1]
    rng = random.Random(5)
    shapes = (1, 2, 3, 4, 5, 6, (1, 2), (2, 2), ((1, 1), 2), ((1, 2), (1, 1)))
    for shape in shapes * 3:
        desc = _product(rng, shape)
        program = chigenus.descriptor_from_token(desc.token())
        assert program.name() == desc.token()
        assert program.to_json_dict() == desc.to_json()
        euler = chigenus.evaluate(chigenus.euler_functional(desc.dimension), program)
        assert chi_y(desc) == (list(chigenus.chi_values(program)), euler)


# -- tampered outputs count as failures ----------------------------------------------


def test_tampered_outputs_count_toward_fail_ratio():
    feasible = Op("certify", ["certify", "--dim", "3", "--target=1*c1*c2", "--json"], dim=3, target={(1, 1, 0): Fraction(1)}, feasible=True)
    infeasible = Op("certify", ["certify", "--dim", "4", "--target=-1*c1^4", "--json"], dim=4, target={(4, 0, 0, 0): Fraction(-1)})
    table = Op("chi", ["chi", "--dim", "4", "--json", "--convention", "cotangent"], dim=4)
    runs = {name: run_op(op) for name, op in (("feasible", feasible), ("infeasible", infeasible), ("table", table))}
    for op, child in zip((feasible, infeasible, table), runs.values()):
        check_op(op, child.returncode, child.stdout)  # untouched output passes

    data = json.loads(runs["feasible"].stdout)
    data["payload"]["certificate"]["terms"][0]["coef"] = "2"
    bad_coef = Child(0, 0, 0, 0, canonical(data), b"")
    assert "not the target" in failure_of(feasible, bad_coef)

    data = json.loads(runs["infeasible"].stdout)
    witness = data["payload"]["infeasibility"]["witness"]
    if witness["terms"][-1]["exps"] != [0, 0, 0, 1]:  # c4 sorts last
        witness["terms"].append({"den": "1", "exps": [0, 0, 0, 1], "num": "0"})
    c4 = witness["terms"][-1]
    c4["num"] = str(int(c4["num"]) * int(c4["den"]) + 10**6)
    c4["den"] = "1"
    bad_witness = Child(1, 0, 0, 0, canonical(data), b"")
    assert "pairs positively with P_(4,0,0,0)" in failure_of(infeasible, bad_witness)

    data = json.loads(runs["table"].stdout)
    term = data["payload"]["rows"][1]["poly"]["terms"][0]
    term["num"] = str(-int(term["num"]))
    flipped = Child(0, 0, 0, 0, canonical(data), b"")
    assert "duality" in failure_of(table, flipped)

    wrong_exit = Child(1, 0, 0, 0, runs["table"].stdout, b"")
    assert "exit code 1, expected 0" in failure_of(table, wrong_exit)

    data = json.loads(runs["table"].stdout)
    data["payload"]["rows"][0]["poly"]["terms"][0]["den"] = "0"
    zero_den = Child(0, 0, 0, 0, canonical(data), b"")
    assert "ZeroDivisionError" in failure_of(table, zero_den)

    verifier = Verifier(required=set())
    tampered = (bad_coef, bad_witness, flipped, wrong_exit, zero_den)
    for op, child in zip((feasible, feasible, infeasible, table, table, table), (runs["feasible"], *tampered)):
        verifier.verify(op, child)
    assert (verifier.attempted, len(verifier.failures)) == (6, 5)


# -- accounting and inputs -------------------------------------------------------------


def test_self_times_cover_root_exactly():
    record = {
        "names": ["cli.main", "hrr.chi_p", "poly.GradedPoly.__mul__", "trace.count"],
        "spans": [[0, -1, 0, 100], [1, 0, 10, 60], [2, 1, 20, 30], [3, 0, 60, 70]],
        "counters": {},
        "import_s": 0.0,
    }
    trace = OpTrace(record)
    assert trace.self_s == {"cli.main": 40e-9, "hrr.chi_p": 40e-9, "poly.GradedPoly.__mul__": 10e-9, "trace.count": 10e-9}
    assert sum(trace.self_s.values()) == pytest.approx(trace.root_s)


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(30)]
    assert tail(values) == (19.0, pytest.approx(100 * 20 / 30))
    assert tail([1.0, 2.0]) == (2.0, 100.0)


def test_seed_fixes_inputs_but_not_the_mix():
    SCRATCH.mkdir(exist_ok=True)
    for workload in ("tables", "certify", "audit"):
        first = [[op.label() for op in ops] for ops in generate(workload, 7, 2, SCRATCH)]
        again = [[op.label() for op in ops] for ops in generate(workload, 7, 2, SCRATCH)]
        other = generate(workload, 8, 2, SCRATCH)
        assert first == again
        assert [op.label() for op in other[0]] != first[0]
        assert sorted((op.kind, op.dim, op.mode) for op in other[0]) == sorted(
            (op.kind, op.dim, op.mode) for op in generate(workload, 7, 1, SCRATCH)[0]
        )
    for path in SCRATCH.glob("corpus-*.jsonl"):
        path.unlink()


def test_references_cover_the_default_seed():
    SCRATCH.mkdir(exist_ok=True)
    references = json.loads(REFERENCES.read_text())
    for workload in WORKLOADS:
        covered = rounds_for(workload, REFERENCE_SECONDS)
        plan = generate(workload, 0, 2 * covered, SCRATCH)
        required = required_references(workload, 0, plan)
        assert required == {op.label() for ops in plan[:covered] for op in ops}
        assert required <= set(references)
        assert not required_references(workload, 1, plan)
    for path in SCRATCH.glob("corpus-*.jsonl"):
        path.unlink()


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER


# -- run.py end to end ---------------------------------------------------------------


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload,trace", [("tables", "0"), ("certify", "0"), ("audit", "0"), ("audit", "1")])
def test_seed_code_has_no_failures(workload, trace):
    done = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = set(PER_LAYER) if trace == "1" else set(END_TO_END)
    assert set(result["metrics"]) == names


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "audit", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
