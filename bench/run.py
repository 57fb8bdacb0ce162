"""Cold-process benchmark of the chigenus CLI.

    python3 bench/run.py --workload {tables,certify,audit} --seed N \\
        --seconds S --trace {0,1}

Every op is a fresh ``python -m chigenus ...`` process run against this
checkout's ``src/``, one child at a time (a closed loop with one client).
A run executes round(S / ROUND_SECONDS) shuffled rounds of the workload's
fixed op mix, so the parent commit and a change measure the same ops; at
the commit that added the benchmark that takes about S seconds.  Every
output is re-verified exactly (see check.py) and its SHA-256 compared with
bench/reference_digests.json.

``--trace 0`` reports the end-to-end metrics, timed with tracing off and
scaled to a reference host speed: the shared host this runs on changes
speed by up to half from minute to minute, so about once a second the
loop times a cold calibration process that runs fixed standard-library
work and no chigenus code (loop.py), and each child's wall and CPU time
are multiplied by REFERENCE_CALIBRATION_S over the faster of the two
calibrations around it.  The program's own cost is unchanged by this; most of the
host's state drops out.
``--trace 1`` replays half the rounds, each op once plain and once under
the span wrappers of trace_child.py, and reports the per-layer metrics of
layers.py plus the tracing overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import subprocess
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from check import CheckFailure, check_op
from layers import PER_LAYER, OpTrace, layer_metrics
from workloads import REFERENCE_SECONDS, VERSION_OP, WORKLOADS, generate, rounds_for

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_tmp"
REFERENCES = BENCH / "reference_digests.json"
DEFAULT_SEED = 0
PROBES_PER_RUN = 30
TAIL_SAMPLES = 10

# Wall time of loop.py's calibration process at the reference host speed
# (a round figure near its typical value on the shared 2-CPU VM where the
# benchmark was written, Python 3.11.7).  End-to-end times are reported as
# if it took this long.
REFERENCE_CALIBRATION_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ops_per_s": "1/s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Child:
    """Outcome of one cold child process."""

    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes
    scale: float = 1.0  # REFERENCE_CALIBRATION_S / the faster calibration around this child


def child_env() -> dict:
    """The caller's environment without CHIGENUS_CONFIG (the program's
    defaults, not a user's) and without PYTHON* settings: in particular
    PYTHONDONTWRITEBYTECODE would make every child recompile the package,
    where an installed package runs from cached bytecode."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "CHIGENUS_CONFIG"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def drive(argvs: list[list[str]], warmup: list[list[str]]) -> list[Child]:
    """Run argvs one at a time from the lean loop process (loop.py); return
    each child's outcome with its host-speed scale."""
    plan, results, blobs = (SCRATCH / f"loop-{os.getpid()}.{name}" for name in ("plan.json", "results.json", "blobs.bin"))
    plan.write_text(json.dumps({"env": child_env(), "warmup": warmup, "argvs": argvs}), encoding="utf-8")
    try:
        subprocess.run([sys.executable, "-S", str(BENCH / "loop.py"), str(plan), str(results), str(blobs)], check=True)
        rows = json.loads(results.read_text(encoding="utf-8"))
        data = blobs.read_bytes()
    finally:
        for path in (plan, results, blobs):
            path.unlink(missing_ok=True)
    before = [index for index, _ in rows["calibration"]]
    calibration = [wall for _, wall in rows["calibration"]]
    children, offset = [], 0
    for index, (code, wall, cpu, maxrss, out_len, err_len) in enumerate(rows["rows"]):
        stdout = data[offset : offset + out_len]
        stderr = data[offset + out_len : offset + out_len + err_len]
        offset += out_len + err_len
        # The host's speed can change within seconds, so only the last
        # calibration before this child and the first after it count; the
        # faster one, because interference only ever slows a calibration.
        after = bisect.bisect_right(before, index)
        fastest = min(calibration[after - 1 : after + 1])
        children.append(Child(code, wall, cpu, maxrss, stdout, stderr, REFERENCE_CALIBRATION_S / fastest))
    return children


def cli_argv(op) -> list[str]:
    return [sys.executable, "-m", "chigenus", *op.argv]


def traced_argv(op, spans_path: Path) -> list[str]:
    return [sys.executable, str(BENCH / "trace_child.py"), str(spans_path), *op.argv]


def required_references(workload: str, seed: int, plan: list[list]) -> set[str]:
    """Labels of the ops that must have a reference digest: at the default
    seed, every op of the rounds that make_refs.py covers.  Other seeds
    draw inputs that the references do not cover."""
    covered = rounds_for(workload, REFERENCE_SECONDS) if seed == DEFAULT_SEED else 0
    return {op.label() for ops in plan[:covered] for op in ops}


class Verifier:
    """Exact output checks plus reference SHA-256 digests.

    An op whose label has a reference digest must match it; an op whose
    label is in `required` must have one.
    """

    def __init__(self, required: set[str]):
        self.references = json.loads(REFERENCES.read_text(encoding="utf-8"))
        self.required = required
        self.attempted = 0
        self.failures: list[str] = []
        self.digests_checked = 0

    def fail(self, op, reason: str) -> None:
        self.failures.append(f"{op.label()[:120]}: {reason}")

    def verify(self, op, child: Child) -> bool:
        self.attempted += 1
        try:
            check_op(op, child.returncode, child.stdout)
            digest = hashlib.sha256(child.stdout).hexdigest()
            reference = self.references.get(op.label())
            if reference is None and op.label() in self.required:
                raise CheckFailure("no reference digest for the default seed")
            if reference is not None:
                self.digests_checked += 1
                if reference != digest:
                    raise CheckFailure(f"stdout digest {digest[:12]} != reference {reference[:12]}")
        except CheckFailure as exc:
            stderr = child.stderr.decode("utf-8", "replace").strip().splitlines()
            self.fail(op, str(exc) + (f" (stderr: {stderr[-1][:200]})" if stderr else ""))
            return False
        return True


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_SAMPLES samples beyond it; the maximum if there are too few."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_SAMPLES
    if rank < 1:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def measure(ops: list, verifier: Verifier) -> tuple[dict, list[str]]:
    """End-to-end metrics of one untraced pass over `ops`, with --version
    probes interleaved for the set-up time.  The warm-up probe compiles the
    package's bytecode, so no timed op pays for it."""
    every = math.ceil(len(ops) / PROBES_PER_RUN)
    argvs, is_probe = [], []
    for index, op in enumerate(ops):
        if index % every == 0:
            argvs.append(cli_argv(VERSION_OP))
            is_probe.append(True)
        argvs.append(cli_argv(op))
        is_probe.append(False)
    children = drive(argvs, warmup=[cli_argv(VERSION_OP)])
    probes = [c for c, flag in zip(children, is_probe) if flag]
    children = [c for c, flag in zip(children, is_probe) if not flag]
    for child in probes:
        verifier.verify(VERSION_OP, child)
    ok = sum(verifier.verify(op, child) for op, child in zip(ops, children))
    walls = [c.wall_s * c.scale for c in children]
    tail_value, tail_pct = tail(walls)
    metrics = {
        "setup_s": statistics.median(c.wall_s * c.scale for c in probes),
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": tail_value,
        "ops_per_s": ok / sum(walls),
        "cpu_s_per_op": statistics.fmean(c.cpu_s * c.scale for c in children),
        "peak_rss_mb": max(c.maxrss_kb for c in children) / 1024,
    }
    scales = [c.scale for c in [*probes, *children]]
    notes = [
        f"latency_tail_s is p{tail_pct:.1f} of {len(walls)} samples",
        f"setup_s is the median of {len(probes)} --version probes",
        f"times are scaled to the reference host speed by {statistics.median(scales):.3f} "
        f"(median; {min(scales):.3f} to {max(scales):.3f}); unscaled, setup_s = "
        f"{statistics.median(c.wall_s for c in probes):.6g} s and latency_p50_s = "
        f"{statistics.median(c.wall_s for c in children):.6g} s",
    ]
    return metrics, notes


def trace(ops: list, verifier: Verifier, spans_out: Path) -> tuple[dict, list[str]]:
    """Per-layer metrics: each op runs plain and traced, alternating which
    goes first, so the difference is the tracing overhead.  The spans of
    every op, tagged with its index and label, are written to `spans_out`."""
    spans = [SCRATCH / f"spans-{os.getpid()}-{index}.json" for index in range(len(ops))]
    argvs = []
    for index, op in enumerate(ops):
        pair = [cli_argv(op), traced_argv(op, spans[index])]
        argvs += pair[::-1] if index % 2 else pair
    warm_spans = SCRATCH / f"spans-{os.getpid()}-warmup.json"
    warmup = [cli_argv(VERSION_OP), traced_argv(VERSION_OP, warm_spans)]
    try:
        children = drive(argvs, warmup)
        traces, traced_walls, plain_walls, stdout_bytes, records = [], [], [], [], []
        for index, op in enumerate(ops):
            plain, traced = children[2 * index : 2 * index + 2][:: -1 if index % 2 else 1]
            verifier.verify(op, plain)
            if not verifier.verify(op, traced):
                continue
            if traced.stdout != plain.stdout:
                verifier.fail(op, "traced stdout differs from untraced")
            raw = json.loads(spans[index].read_text(encoding="utf-8"))
            records.append({"op": index, "label": op.label(), "wall_s": traced.wall_s, **raw})
            traces.append(OpTrace(raw))
            traced_walls.append(traced.wall_s)
            plain_walls.append(plain.wall_s)
            stdout_bytes.append(len(traced.stdout))
    finally:
        for path in [*spans, warm_spans]:
            path.unlink(missing_ok=True)
    if not traces:
        raise SystemExit("error: no traced op succeeded")
    spans_out.write_text(json.dumps(records), encoding="utf-8")
    metrics = layer_metrics(traces, traced_walls, plain_walls, stdout_bytes)
    # Self times partition each op's root span, which lies inside the
    # child's lifetime, so these shares stay below 100 %.
    shares = [sum(t.self_s.values()) / wall for t, wall in zip(traces, traced_walls)]
    notes = [
        f"traced {len(traces)} ops, each also run untraced",
        f"tracing overhead {metrics['trace.overhead_s']:.4f} s/op ({100 * metrics['trace.overhead_ratio']:.1f} %)",
        f"self times cover {100 * sum(sum(t.self_s.values()) for t in traces) / sum(traced_walls):.1f} % "
        f"of traced op wall time (at most {100 * max(shares):.1f} % of one op)",
        f"spans of every traced op are in {spans_out}",
    ]
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chigenus" / "__init__.py").is_file():
        print(f"error: no chigenus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    rounds = rounds_for(args.workload, args.seconds)
    if args.trace:
        rounds = max(1, rounds // 2)
    plan = generate(args.workload, args.seed, rounds, SCRATCH)
    ops = [op for ops_of_round in plan for op in ops_of_round]
    verifier = Verifier(required_references(args.workload, args.seed, plan))
    started = time.perf_counter()
    if args.trace:
        values, notes = trace(ops, verifier, SCRATCH / f"spans-{args.workload}-{args.seed}.json")
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        values, notes = measure(ops, verifier)
        units = END_TO_END
    for path in SCRATCH.glob("corpus-*.jsonl"):
        path.unlink()

    print(f"workload {args.workload}, seed {args.seed}, {rounds} rounds of {len(plan[0])} ops, "
          f"{time.perf_counter() - started:.1f} s")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for note in notes:
        print(f"  {note}")
    print(f"  fail_ratio = {len(verifier.failures) / verifier.attempted:.6g} ratio "
          f"({len(verifier.failures)} of {verifier.attempted} ops, --version probes included)")
    print(f"  {verifier.digests_checked} stdout digests matched the references")
    for failure in verifier.failures:
        print(f"  FAILED {failure}")
    result = {
        "correct": not verifier.failures,
        "attempted": verifier.attempted,
        "failed": len(verifier.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
