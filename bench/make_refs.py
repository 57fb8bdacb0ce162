"""Regenerate bench/reference_digests.json from the current program.

    python3 bench/make_refs.py

Runs every distinct op the default seed draws for runs of up to
REFERENCE_SECONDS (60 s), checks each output exactly, and records the
SHA-256 of its stdout.  The chi
tables up to dim ORACLE_MAX_DIM must also equal the closed-product chi_y
oracle of tests/oracles.py, an independent route too slow to run per op
(about 50 s at dim 8).  Run this only when an output change is intended; a
speed-up must leave the bytes, and so this file, unchanged.
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache

from check import CheckFailure, check_op, parse_poly
from loop import run_cold
from run import DEFAULT_SEED, REFERENCES, ROOT, SCRATCH, child_env, cli_argv
from workloads import REFERENCE_SECONDS, VERSION_OP, WORKLOADS, generate, rounds_for

ORACLE_MAX_DIM = 8

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
from oracles import chi_table_via_roots  # noqa: E402


@lru_cache(maxsize=None)
def oracle_rows(n: int) -> list[dict]:
    """chi^0..chi^n in tangent variables from the closed chi_y product."""
    return [row.terms() for row in chi_table_via_roots(n)]


def check_against_oracle(op, stdout: bytes) -> None:
    if op.kind != "chi" or op.dim > ORACLE_MAX_DIM:
        return
    sign = (-1) ** op.dim if op.convention == "cotangent" else 1
    expected = [{m: c * sign for m, c in row.items()} for row in oracle_rows(op.dim)]
    rows = [parse_poly(row["poly"], op.dim) for row in json.loads(stdout)["payload"]["rows"]]
    if rows != expected:
        raise CheckFailure("chi table disagrees with the closed-product oracle")


def main() -> int:
    SCRATCH.mkdir(exist_ok=True)
    env = child_env()
    digests: dict[str, str] = {}
    for workload in WORKLOADS:
        plan = generate(workload, DEFAULT_SEED, rounds_for(workload, REFERENCE_SECONDS), SCRATCH)
        for op in [VERSION_OP, *(op for ops in plan for op in ops)]:
            if op.label() in digests:
                continue
            code, _, _, _, stdout, _ = run_cold(cli_argv(op), env)
            try:
                check_op(op, code, stdout)
                check_against_oracle(op, stdout)
            except CheckFailure as exc:
                print(f"error: {op.label()[:120]}: {exc}", file=sys.stderr)
                return 1
            digests[op.label()] = hashlib.sha256(stdout).hexdigest()
        print(f"{workload}: {len(digests)} digests so far")
    for path in SCRATCH.glob("corpus-*.jsonl"):
        path.unlink()
    REFERENCES.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
