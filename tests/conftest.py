"""Shared fixtures: Kneser Laplacians and their Smith forms, computed once."""

from __future__ import annotations

import pytest
from hypothesis import settings

from critgroup.graphs import kneser_graph, laplacian_matrix
from critgroup.intmat import smith_normal_form

# Property tests replay the same examples on every run and keep no example
# database, so a failure reproduces and the suite writes nothing to the tree.
settings.register_profile("critgroup", deadline=None, derandomize=True, database=None)
settings.load_profile("critgroup")

_LAPLACIANS = {}
_SMITH = {}


def kneser_laplacian(n: int):
    if n not in _LAPLACIANS:
        _LAPLACIANS[n] = laplacian_matrix(kneser_graph(n))
    return _LAPLACIANS[n]


def kneser_smith(n: int):
    if n not in _SMITH:
        _SMITH[n] = smith_normal_form(kneser_laplacian(n))
    return _SMITH[n]


@pytest.fixture(scope="session")
def laplacian_of():
    return kneser_laplacian


@pytest.fixture(scope="session")
def smith_of():
    return kneser_smith
