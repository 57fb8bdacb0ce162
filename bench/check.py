"""Exact checks of chigenus CLI output, in the benchmark's own arithmetic.

Nothing here imports chigenus: every output is parsed from its JSON and
re-verified with this module's own `Fraction` code.

* Schur generators are recomputed by Laplace expansion of the
  Jacobi-Trudi determinant det(c_{a_i - i + j}).
* A chi table must satisfy Serre duality chi^p = (-1)^n chi^{n-p}, sum to
  the Euler class with alternating signs, and give chi^p(P^n) = (-1)^p.
* A certificate must reproduce its target from non-negative multiples of
  the Schur generators; a Farkas witness must pair <= 0 with every
  generator and > 0 with the target.
* Audited varieties are checked against closed forms of chi_y: P^n,
  curves, abelian varieties, Noether's formula for surfaces, Hirzebruch's
  series for hypersurfaces, and multiplicativity for products.

Each check raises `CheckFailure` with a one-line reason.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm


class CheckFailure(Exception):
    """An op's exit code or output is not what the exact check expects."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailure(reason)


# -- polynomials: {exponent tuple: Fraction} ----------------------------------


def weight(mono: tuple[int, ...]) -> int:
    return sum((i + 1) * e for i, e in enumerate(mono))


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of n padded to length n, largest first part first."""

    def descend(left: int, cap: int):
        if left == 0:
            yield ()
            return
        for first in range(min(left, cap), 0, -1):
            for rest in descend(left - first, first):
                yield (first,) + rest

    return tuple(p + (0,) * (n - len(p)) for p in descend(n, n))


def monomial_of(parts: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The weight-n monomial prod c_{part} of a partition."""
    exps = [0] * n
    for part in parts:
        if part:
            exps[part - 1] += 1
    return tuple(exps)


def parse_poly(obj: dict, n: int) -> dict[tuple[int, ...], Fraction]:
    """Parse the canonical polynomial JSON, checking its canonical form."""
    require(obj.get("dim") == n, f"polynomial dim {obj.get('dim')} != {n}")
    poly: dict[tuple[int, ...], Fraction] = {}
    keys = []
    for term in obj["terms"]:
        mono = tuple(term["exps"])
        num, den = int(term["num"]), int(term["den"])
        coef = Fraction(num, den)
        require(len(mono) == n and all(e >= 0 for e in mono), f"bad monomial {mono}")
        require(den > 0 and coef.denominator == den and num != 0, f"non-canonical {num}/{den}")
        require(mono not in poly, f"repeated monomial {mono}")
        poly[mono] = coef
        keys.append((weight(mono), tuple(-e for e in mono)))
    require(keys == sorted(keys), "polynomial terms are not in canonical order")
    return poly


def top_weight(poly: dict, n: int) -> dict:
    require(all(weight(m) == n for m in poly), f"polynomial is not of top weight {n}")
    return poly


def scaled(poly: dict, factor: Fraction) -> dict:
    return {m: c * factor for m, c in poly.items() if c * factor}


def added(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        value = out.get(m, 0) + c
        if value:
            out[m] = value
        else:
            out.pop(m, None)
    return out


def pairing(a: dict, b: dict) -> Fraction:
    return sum((c * b[m] for m, c in a.items() if m in b), Fraction(0))


def poly_text(poly: dict) -> str:
    """The CLI's inline polynomial syntax, e.g. '3*c1^2*c2 - 1*c4'."""
    pieces = []
    for mono in sorted(poly, key=lambda m: (weight(m), tuple(-e for e in m))):
        coef = poly[mono]
        factors = "*".join(
            f"c{i + 1}" if e == 1 else f"c{i + 1}^{e}" for i, e in enumerate(mono) if e
        )
        body = f"{abs(coef)}*{factors}" if factors else f"{abs(coef)}"
        if pieces:
            pieces.append(("+ " if coef > 0 else "- ") + body)
        else:
            pieces.append(body if coef > 0 else "-" + body)
    return " ".join(pieces) if pieces else "0"


# -- Schur generators ------------------------------------------------------------


@lru_cache(maxsize=None)
def schur(parts: tuple[int, ...], n: int) -> dict:
    """det(c_{a_i - i + j}) by Laplace expansion along rows, memoized on the
    set of columns still free (c_0 = 1, c_k = 0 outside 0..n)."""
    zero = (0,) * n
    memo: dict[int, dict] = {}

    def minor(mask: int) -> dict:
        if mask in memo:
            return memo[mask]
        row = n - bin(mask).count("1")
        if row == n:
            return {zero: 1}
        out: dict = {}
        sign = 1
        for j in range(n):
            if not mask >> j & 1:
                continue
            k = parts[row] - row + j
            if 0 <= k <= n:
                for mono, coef in minor(mask & ~(1 << j)).items():
                    if k:
                        mono = mono[: k - 1] + (mono[k - 1] + 1,) + mono[k:]
                    value = out.get(mono, 0) + sign * coef
                    if value:
                        out[mono] = value
                    else:
                        out.pop(mono, None)
            sign = -sign
        memo[mask] = out
        return out

    return {m: Fraction(c) for m, c in minor((1 << n) - 1).items()}


def schur_label(parts: tuple[int, ...]) -> str:
    return "P_(" + ",".join(str(p) for p in parts) + ")"


@lru_cache(maxsize=None)
def schur_catalog(n: int) -> dict[str, dict]:
    return {schur_label(a): schur(a, n) for a in partitions(n)}


# -- chi tables --------------------------------------------------------------------


def projective_numbers(n: int, convention: str) -> dict:
    """Chern numbers of P^n: c(T) = (1 + h)^{n+1}, int h^n = 1."""
    sign = (-1) ** n if convention == "cotangent" else 1
    numbers = {}
    for parts in partitions(n):
        mono = monomial_of(parts, n)
        value = sign
        for i, e in enumerate(mono):
            value *= comb(n + 1, i + 1) ** e
        numbers[mono] = Fraction(value)
    return numbers


def check_chi_rows(rows: list[dict], n: int, convention: str) -> None:
    """Serre duality, the Euler identity and chi^p(P^n) = (-1)^p."""
    require(len(rows) == n + 1, f"expected {n + 1} chi rows, got {len(rows)}")
    for p in range(n + 1):
        require(rows[p] == scaled(rows[n - p], Fraction((-1) ** n)), f"duality fails at p={p}")
    alternating: dict = {}
    for p, row in enumerate(rows):
        alternating = added(alternating, scaled(row, Fraction((-1) ** p)))
    top = (0,) * (n - 1) + (1,) if n else ()
    euler = {top: Fraction((-1) ** n if convention == "cotangent" else 1)}
    require(alternating == euler, "alternating sum of chi^p is not the Euler class")
    numbers = projective_numbers(n, convention)
    for p, row in enumerate(rows):
        require(pairing(row, numbers) == (-1) ** p, f"chi^{p}(P^{n}) != {(-1) ** p}")


# -- certificates and witnesses --------------------------------------------------


def check_certificate(cert: dict, target: dict, n: int) -> None:
    gens = schur_catalog(n)
    require(parse_poly(cert["target"], n) == target, "certificate target differs")
    combination: dict = {}
    for term in cert["terms"]:
        coef = Fraction(term["coef"])
        require(term["gen"] in gens, f"unknown generator {term['gen']}")
        require(coef >= 0, f"negative coefficient {coef} for {term['gen']}")
        combination = added(combination, scaled(gens[term["gen"]], coef))
    residual = parse_poly(cert["residual"], n)
    require(not residual, "certificate leaves a residual")
    require(combination == target, "sum of coef * generator is not the target")


def check_witness(infeasibility: dict, target: dict, n: int) -> None:
    witness = parse_poly(infeasibility["witness"], n)
    for name, gen in schur_catalog(n).items():
        require(pairing(witness, gen) <= 0, f"witness pairs positively with {name}")
    require(pairing(witness, target) > 0, "witness does not separate the target")


def check_certify_result(body: dict, target: dict, n: int) -> bool:
    """Verify one certify outcome; True iff certified."""
    if body["status"] == "certified":
        require("certificate" in body and "infeasibility" not in body, "certified without certificate")
        check_certificate(body["certificate"], target, n)
        return True
    require("infeasibility" in body and "certificate" not in body, "open without witness")
    check_witness(body["infeasibility"], target, n)
    return False


# -- closed forms for varieties ----------------------------------------------------


def _series_mul(a: list, b: list, order: int) -> list:
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(order + 1)]


def _series_inv(a: list, order: int) -> list:
    inv = [1 / a[0]]
    for k in range(1, order + 1):
        inv.append(-sum(a[i] * inv[k - i] for i in range(1, k + 1)) / a[0])
    return inv


def _hypersurface_chi_y_at(degree: int, ambient: int, y: Fraction) -> Fraction:
    """chi_y(X) = d [h^n] Q(h)^{N+1} / (Q(0) Q(dh)) for X of degree d in P^N,
    with Q(x) = (1 + y e^{-x}) x / (1 - e^{-x})."""
    n = ambient - 1
    todd = _series_inv([Fraction((-1) ** m, factorial(m + 1)) for m in range(n + 1)], n)
    exp_neg = [Fraction((-1) ** m, factorial(m)) for m in range(n + 1)]
    q = [todd[m] + y * sum(exp_neg[i] * todd[m - i] for i in range(m + 1)) for m in range(n + 1)]
    power = [Fraction(1)] + [Fraction(0)] * n
    for _ in range(ambient + 1):
        power = _series_mul(power, q, n)
    normal = [q[m] * degree**m for m in range(n + 1)]
    quotient = _series_mul(power, _series_inv(normal, n), n)
    return degree * quotient[n] / q[0]


def _interpolate(points: list[tuple[Fraction, Fraction]]) -> list[Fraction]:
    """Coefficients (constant first) of the polynomial through the points."""
    size = len(points)
    coeffs = [Fraction(0)] * size
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = [Fraction(0)] + basis
                for k in range(len(basis) - 1):
                    basis[k] -= xj * basis[k + 1]
                denom *= xi - xj
        for k in range(size):
            coeffs[k] += yi * basis[k] / denom
    return coeffs


def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def chi_y(desc) -> tuple[list[Fraction], Fraction]:
    """(chi^0..chi^n, Euler number) of a descriptor, by closed forms."""
    kind, args = desc.kind, desc.args
    if kind == "pn":
        n = args[0]
        return [Fraction((-1) ** p) for p in range(n + 1)], Fraction(n + 1)
    if kind == "curve":
        g = args[0]
        return [Fraction(1 - g), Fraction(g - 1)], Fraction(2 - 2 * g)
    if kind == "abelian":
        return [Fraction(0)] * (args[0] + 1), Fraction(0)
    if kind == "surface":
        c1sq, c2 = args
        chi0 = Fraction(c1sq + c2, 12)
        return [chi0, Fraction(c1sq - 5 * c2, 6), chi0], Fraction(c2)
    if kind == "hypersurface":
        degree, ambient = args
        n = ambient - 1
        points = [(Fraction(y), _hypersurface_chi_y_at(degree, ambient, Fraction(y))) for y in range(n + 1)]
        euler_series = [Fraction(comb(ambient + 1, m)) for m in range(n + 1)]
        inverse = [Fraction((-degree) ** m) for m in range(n + 1)]
        euler = degree * _series_mul(euler_series, inverse, n)[n]
        return _interpolate(points), euler
    if kind == "product":
        left, right = (chi_y(part) for part in args)
        return _poly_mul(left[0], right[0]), left[1] * right[1]
    raise ValueError(f"no closed form for {kind}")


def check_audit(audit: dict, desc, mode: str) -> bool:
    """Verify one sign audit; returns whether it passes."""
    chis, euler = chi_y(desc)
    n = desc.dimension
    require(audit["variety"] == desc.token(), f"audit names {audit['variety']!r}, expected {desc.token()!r}")
    require(audit["dim"] == n and audit["mode"] == mode, f"audit header wrong for {desc.token()}")
    require(Fraction(audit["euler"]) == euler, f"euler of {desc.token()} is {audit['euler']}, expected {euler}")
    require(len(audit["rows"]) == n + 1, f"{desc.token()}: expected {n + 1} rows")
    passed = True
    for p, (row, chi) in enumerate(zip(audit["rows"], chis)):
        sign = (-1) ** (n - p) if mode == "nef_cotangent" else (-1) ** p
        ok = chi * sign >= 0
        require(row["p"] == p and Fraction(row["chi"]) == chi, f"chi^{p}({desc.token()}) is {row['chi']}, expected {chi}")
        require(row["sign"] == sign and Fraction(row["signed"]) == chi * sign, f"sign of chi^{p}({desc.token()})")
        require(row["ok"] is ok, f"ok flag of chi^{p}({desc.token()})")
        passed = passed and ok
    require(audit["pass"] is passed, f"pass flag of {desc.token()}")
    return passed


# -- one op -------------------------------------------------------------------------


def envelope(stdout: bytes, command: str) -> dict:
    text = stdout.decode("utf-8")
    require(text.endswith("\n") and text.count("\n") == 1, "JSON output is not one line")
    data = json.loads(text)
    require(data.get("command") == command, f"command field {data.get('command')!r}")
    return data


def check_op(op, returncode: int, stdout: bytes) -> None:
    """Raise CheckFailure unless the exit code and stdout of `op` are right."""
    try:
        expected_rc = _CHECKS[op.kind](op, stdout)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, ZeroDivisionError) as exc:
        raise CheckFailure(f"unparseable output: {type(exc).__name__}: {exc}") from exc
    require(returncode == expected_rc, f"exit code {returncode}, expected {expected_rc}")


def _check_chi(op, stdout: bytes) -> int:
    data = envelope(stdout, "chi")
    n, convention = op.dim, op.convention
    payload = data["payload"]
    require(data["dimension"] == n and data["convention"] == convention, "chi header")
    require(payload["convention"] == convention and payload["dim"] == n, "chi payload header")
    require([row["p"] for row in payload["rows"]] == list(range(n + 1)), "chi rows out of order")
    rows = [top_weight(parse_poly(row["poly"], n), n) for row in payload["rows"]]
    check_chi_rows(rows, n, convention)
    return 0


def _check_schur(op, stdout: bytes) -> int:
    data = envelope(stdout, "schur")
    n = op.dim
    require(data["dimension"] == n, "schur header")
    gens = data["payload"]["generators"]
    catalog = schur_catalog(n)
    require([g["name"] for g in gens] == list(catalog), "schur generator names or order")
    for g in gens:
        require(parse_poly(g["poly"], n) == catalog[g["name"]], f"{g['name']} is wrong")
    return 0


def _check_certify(op, stdout: bytes) -> int:
    data = envelope(stdout, "certify")
    n = op.dim
    body = data["payload"]
    require(data["dimension"] == n and data["convention"] == "cotangent", "certify header")
    require(body["assumptions"] == ["schur"] and body["mode"] == "nef_cotangent", "certify settings")
    require(body["scale"] == 1 and body["sign"] == 1, "inline target must have scale and sign 1")
    require(parse_poly(body["target"], n) == op.target, "certify target differs from input")
    certified = check_certify_result(body, op.target, n)
    require(certified or not op.feasible, "feasible target was not certified")
    return 0 if certified else 1


def _check_all_p(op, stdout: bytes) -> int:
    data = envelope(stdout, "certify")
    n, mode = op.dim, op.mode
    convention = "cotangent" if mode == "nef_cotangent" else "tangent"
    body = data["payload"]
    require(data["dimension"] == n and data["convention"] == convention, "report header")
    require(body["dim"] == n and body["mode"] == mode and body["convention"] == convention, "report settings")
    require(body["assumptions"] == ["schur"], "report assumptions")
    rows = body["rows"]
    require([row["p"] for row in rows] == list(range(n + 1)), "report rows out of order")
    chi_rows = []
    all_certified = True
    for p, row in enumerate(rows):
        sign = (-1) ** (n - p) if mode == "nef_cotangent" else (-1) ** p
        require(row["sign"] == sign and row["scale"] >= 1, f"sign or scale of row {p}")
        target = top_weight(parse_poly(row["target"], n), n)
        require(all(c.denominator == 1 for c in target.values()), f"row {p} target not integral")
        chi = scaled(target, Fraction(1, sign * row["scale"]))
        minimal = lcm(*(c.denominator for c in chi.values()))
        require(minimal == row["scale"], f"row {p} scale {row['scale']} is not minimal ({minimal})")
        chi_rows.append(scaled(chi, Fraction((-1) ** n)) if mode == "nef_tangent" else chi)
        certified = check_certify_result(row, target, n)
        require(row["status"] == ("certified" if certified else "open"), f"row {p} status")
        all_certified = all_certified and certified
    check_chi_rows(chi_rows, n, "cotangent")
    require(body["allCertified"] is all_certified, "allCertified flag")
    return 0 if all_certified else 1


def _check_audit_corpus(op, stdout: bytes) -> int:
    data = envelope(stdout, "check")
    payload = data["payload"]
    audits = payload["audits"]
    require(len(audits) == len(op.descriptors), "one audit per corpus entry")
    # a list, not a generator: every audit is checked, also after one fails
    passed = all([check_audit(a, d, op.mode) for a, d in zip(audits, op.descriptors)])
    require(payload["pass"] is passed, "overall pass flag")
    return 0 if passed else 1


def _check_eval(op, stdout: bytes) -> int:
    data = envelope(stdout, "variety-eval")
    (desc,) = op.descriptors
    chis, euler = chi_y(desc)
    payload = data["payload"]
    require(data["dimension"] == desc.dimension, "eval header")
    require(payload["descriptor"] == desc.to_json(), "eval descriptor JSON")
    require([Fraction(v) for v in payload["chi"]] == chis, f"chi values of {desc.token()}")
    require(Fraction(payload["euler"]) == euler, f"euler of {desc.token()}")
    return 0


def _check_version(op, stdout: bytes) -> int:
    require(stdout.startswith(b"chigenus ") and stdout.count(b"\n") == 1, "version line")
    return 0


_CHECKS = {
    "chi": _check_chi,
    "schur": _check_schur,
    "certify": _check_certify,
    "all_p": _check_all_p,
    "check": _check_audit_corpus,
    "eval": _check_eval,
    "version": _check_version,
}
