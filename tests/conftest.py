from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from chigenus.poly import monomials_of_weight
from oracles import GradedPoly

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
    pool = [m for w in range(dim + 1) for m in monomials_of_weight(dim, w)]
    return st.sampled_from(pool)


def graded_polys(dim: int, max_terms: int = 5) -> st.SearchStrategy[GradedPoly]:
    return st.lists(
        st.tuples(monomials_for(dim), rationals()), max_size=max_terms
    ).map(lambda terms: GradedPoly(dim, terms))


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
