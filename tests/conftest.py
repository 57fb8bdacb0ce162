from __future__ import annotations

import os
import pathlib
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from chigenus.poly import BasisConvention, weight_basis
from oracles import GradedPoly

# `pythonpath` in pyproject.toml puts `src` on this process's path; the
# `python -m chigenus` children that some tests start need it too
SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def rationals(magnitude: int = 8, max_denominator: int = 12) -> st.SearchStrategy[Fraction]:
    return st.fractions(
        min_value=-magnitude, max_value=magnitude, max_denominator=max_denominator
    )


def monomials_for(dim: int) -> st.SearchStrategy[tuple[int, ...]]:
    pool = [m + (0,) * (dim - w) for w in range(dim + 1) for m in weight_basis(w)]
    return st.sampled_from(pool)


def graded_polys(dim: int, max_terms: int = 5) -> st.SearchStrategy[GradedPoly]:
    return st.lists(
        st.tuples(monomials_for(dim), rationals()), max_size=max_terms
    ).map(lambda terms: GradedPoly(dim, terms))


@st.composite
def fraction_rows(draw, max_dim: int = 7):
    """(n, convention, the coefficients as Fractions) of a random weight-n row."""
    n = draw(st.integers(0, max_dim), label="n")
    size = len(weight_basis(n))
    coeffs = draw(st.lists(rationals(10**6, 10**4), min_size=size, max_size=size))
    conventions = [BasisConvention.COTANGENT, BasisConvention.TANGENT]
    return n, draw(st.sampled_from(conventions)), tuple(coeffs)


@st.composite
def poly_pairs(draw, max_dim: int = 6):
    dim = draw(st.integers(0, max_dim))
    return draw(graded_polys(dim)), draw(graded_polys(dim))


@st.composite
def poly_triples(draw, max_dim: int = 6):
    dim = draw(st.integers(0, max_dim))
    return (
        draw(graded_polys(dim)),
        draw(graded_polys(dim)),
        draw(graded_polys(dim)),
    )


@pytest.fixture(scope="session")
def corpus_path():
    import pathlib

    return pathlib.Path(__file__).parent / "data" / "corpus.jsonl"
