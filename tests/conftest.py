"""Shared graph fixtures.

Everything here is small enough to build eagerly; session scope just avoids
rebuilding the same adjacency matrices in every test module.
"""

import pytest

from srgta.families import FamilySpec, construct
from srgta.graphcore import complement


@pytest.fixture(scope="session")
def petersen():
    return complement(construct(FamilySpec("johnson", (5,))))


@pytest.fixture(scope="session")
def pentagon():
    return construct(FamilySpec("cycle", (5,)))


@pytest.fixture(scope="session")
def grid3():
    return construct(FamilySpec("grid", (3,)))


@pytest.fixture(scope="session")
def grid3_translations():
    """A column shift and a row shift of grid(3), whose vertex 3r + c is the
    cell (r, c): automorphisms that generate a subgroup of order 9 in Aut,
    which has order 72."""
    return [(1, 2, 0, 4, 5, 3, 7, 8, 6), (3, 4, 5, 6, 7, 8, 0, 1, 2)]


@pytest.fixture(scope="session")
def paley13():
    return construct(FamilySpec("paley", (13,)))


@pytest.fixture(scope="session")
def k33():
    return construct(FamilySpec("multipartite", (2, 3)))


@pytest.fixture(scope="session")
def clebsch():
    """The (16,5,0,2) graph, as the affine polar graph of minus type."""
    return construct(FamilySpec("vo", (-1, 2, 2)))
