"""Seeded inputs for the benchmark workloads.

A workload is a fixed multiset of ops per round; the seed only shuffles
their order and draws certify targets and variety contents, so every seed
does about the same amount of work.  The program receives nothing but the
argv built here and the corpus files it names.

* ``tables``: ``chi --dim n --json`` for n in 6..9, both conventions.
  ``poly`` (the truncated multiply) and ``hrr`` do nearly all the work.
  The mix is weighted (see TABLES_MIX) so the latency percentiles land
  inside a tier of one dimension, not on the edge between two.
* ``certify``: ``schur`` at n = 7, 8; inline-target ``certify`` at n = 5..8,
  half of them feasible by construction and half random; ``certify --all-p``
  at n = 5..7 in both modes.  ``symchern`` (Bareiss) and ``cone`` (both the
  certificate and the Farkas path) carry it.
* ``audit``: ``check corpus.jsonl --json`` in both modes over a fresh corpus
  of dims 1..6, plus single ``variety eval`` ops.  Process start-up and
  ``varieties`` dominate; ``hrr`` only evaluates small cached tables.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from check import added, monomial_of, partitions, poly_text, scaled, schur_catalog

WORKLOADS = ("tables", "certify", "audit")

# Seconds one round takes, with its share of the --version probes, at the
# commit that introduced the benchmark (shared 2-CPU VM, Python 3.11.7).  A
# run executes round(seconds / this) rounds, so the parent commit and a
# change always measure the same ops.  The calibration processes of
# loop.py add about a tenth on top.
ROUND_SECONDS = {"tables": 16.5, "certify": 6.2, "audit": 1.6}

# Runs that long or shorter draw only ops that reference_digests.json holds
# for the default seed (make_refs.py records them).
REFERENCE_SECONDS = 60

CONVENTIONS = ("cotangent", "tangent")

# chi tables per round by dimension, half in each convention, plus one
# dim-9 table whose convention alternates from round to round.  Two rounds
# (a 25 or 30 s run) give 30 tables: 4 of dim 6, 4 of dim 7, 20 of dim 8 and 2 of
# dim 9.  The median (samples 15 and 16) and the tail (sample 20, ten beyond
# it) then both fall inside the dim-8 tier, never on the edge between two
# dimensions.  A dim-8 op runs about a second, long enough to average over
# the host's second-to-second speed changes, which a 0.4 s dim-7 op is not;
# a median of dim-7 tables spread twice as much from seed to seed.  The
# dim-9 tables weigh in ops_per_s and cpu_s_per_op.
TABLES_MIX = {6: 2, 7: 2, 8: 10}


@dataclass(frozen=True)
class Descriptor:
    """A variety recipe, mirrored from the CLI's token and JSON forms."""

    kind: str
    args: tuple

    @property
    def dimension(self) -> int:
        if self.kind == "curve":
            return 1
        if self.kind == "surface":
            return 2
        if self.kind == "hypersurface":
            return self.args[1] - 1
        if self.kind == "product":
            return sum(part.dimension for part in self.args)
        return self.args[0]

    def token(self) -> str:
        if self.kind == "product":
            return f"product({self.args[0].token()},{self.args[1].token()})"
        return ":".join([self.kind] + [str(a) for a in self.args])

    def to_json(self) -> dict:
        if self.kind == "product":
            return {"left": self.args[0].to_json(), "right": self.args[1].to_json(), "type": "product"}
        names = {
            "pn": ("n",),
            "abelian": ("n",),
            "curve": ("genus",),
            "surface": ("c1sq", "c2"),
            "hypersurface": ("degree", "ambient"),
        }[self.kind]
        return dict(zip(names, self.args), type=self.kind)


@dataclass
class Op:
    """One cold CLI invocation and what its output must satisfy."""

    kind: str
    argv: list[str]
    dim: int = 0
    convention: str = "cotangent"
    mode: str = "nef_cotangent"
    target: dict = field(default_factory=dict)
    feasible: bool = False
    descriptors: tuple = ()
    corpus: str = ""

    def label(self) -> str:
        """Stable identity of the op's input, used to key reference digests."""
        if self.kind == "check":
            digest = hashlib.sha256(self.corpus.encode()).hexdigest()[:16]
            return f"check corpus:{digest} --json --mode {self.mode}"
        return " ".join(self.argv)


VERSION_OP = Op("version", ["--version"])


def _chi(n: int, convention: str) -> Op:
    argv = ["chi", "--dim", str(n), "--json", "--max-dim", "9", "--convention", convention]
    return Op("chi", argv, dim=n, convention=convention)


def tables_round(index: int) -> list[Op]:
    ops = [_chi(9, CONVENTIONS[index % 2])]
    for n, count in TABLES_MIX.items():
        ops += [_chi(n, CONVENTIONS[i % 2]) for i in range(count)]
    return ops


def _schur_op(n: int) -> Op:
    return Op("schur", ["schur", "--dim", str(n), "--json"], dim=n)


def _inline_target(rng: random.Random, n: int, feasible: bool) -> dict:
    target: dict = {}
    while not target:
        if feasible:
            for gen in schur_catalog(n).values():
                if rng.random() < 0.5:
                    target = added(target, scaled(gen, Fraction(rng.randint(1, 5))))
        else:
            for parts in partitions(n):
                coef = rng.randint(-9, 9)
                if coef:
                    target[monomial_of(parts, n)] = Fraction(coef)
    return target


def _certify_op(rng: random.Random, n: int, feasible: bool) -> Op:
    target = _inline_target(rng, n, feasible)
    argv = ["certify", "--dim", str(n), f"--target={poly_text(target)}", "--json", "--max-dim", "8"]
    return Op("certify", argv, dim=n, target=target, feasible=feasible)


def _all_p_op(n: int, mode: str) -> Op:
    argv = ["certify", "--all-p", "--dim", str(n), "--mode", mode.replace("_", "-"), "--json", "--max-dim", "8"]
    return Op("all_p", argv, dim=n, mode=mode)


def certify_round(rng: random.Random) -> list[Op]:
    ops = [_schur_op(7), _schur_op(8)]
    ops += [_certify_op(rng, n, feasible) for n in range(5, 9) for feasible in (True, False)]
    ops += [_all_p_op(n, mode) for n in range(5, 8) for mode in ("nef_cotangent", "nef_tangent")]
    return ops


def _variety(rng: random.Random, dim: int) -> Descriptor:
    """A non-product variety of the given dimension with drawn contents."""
    kinds = ["pn", "abelian", "hypersurface"]
    if dim == 1:
        kinds.append("curve")
    if dim == 2:
        kinds.append("surface")
    kind = rng.choice(kinds)
    if kind == "curve":
        return Descriptor("curve", (rng.randint(0, 12),))
    if kind == "surface":
        return Descriptor("surface", (rng.randint(-8, 30), rng.randint(-8, 40)))
    if kind == "hypersurface":
        return Descriptor("hypersurface", (rng.randint(1, 7), dim + 1))
    return Descriptor(kind, (dim,))


def _product(rng: random.Random, shape) -> Descriptor:
    if isinstance(shape, int):
        return _variety(rng, shape)
    return Descriptor("product", (_product(rng, shape[0]), _product(rng, shape[1])))


# Dimensions of the corpus entries; tuples are products, nested to depth 2.
CORPUS_SHAPES = (1, 1, 2, 2, 3, 4, 5, 6, (1, 1), (2, 3), ((1, 1), 1), ((1, 2), 1), ((2, 1), 2), ((1, 1), (2, 2)))
EVAL_SHAPES = (1, 2, 3, 4, (2, 3), ((1, 1), (2, 2)))


def audit_round(rng: random.Random, corpus_dir) -> list[Op]:
    descriptors = tuple(_product(rng, shape) for shape in CORPUS_SHAPES)
    lines = [
        json.dumps({"descriptor": d.to_json(), "expected": {}, "name": d.token()}, sort_keys=True)
        for d in descriptors
    ]
    corpus = "\n".join(lines) + "\n"
    path = corpus_dir / f"corpus-{rng.getrandbits(64):016x}.jsonl"
    path.write_text(corpus, encoding="utf-8")
    ops = [
        Op("check", ["check", str(path), "--json", "--mode", mode.replace("_", "-")], mode=mode, descriptors=descriptors, corpus=corpus)
        for mode in ("nef_cotangent", "nef_tangent")
    ]
    for shape in EVAL_SHAPES:
        desc = _product(rng, shape)
        ops.append(Op("eval", ["variety", "eval", desc.token(), "--json"], dim=desc.dimension, descriptors=(desc,)))
    return ops


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def generate(workload: str, seed: int, rounds: int, corpus_dir) -> list[list[Op]]:
    """`rounds` shuffled rounds of the workload's ops, drawn from `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for index in range(rounds):
        if workload == "tables":
            ops = tables_round(index)
        elif workload == "certify":
            ops = certify_round(rng)
        else:
            ops = audit_round(rng, corpus_dir)
        rng.shuffle(ops)
        out.append(ops)
    return out
