"""Shared fixtures: the 135-vertex full bipartite dual polar instance is
expensive enough to build once per session."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from uniformq.generators import FormSpec, dual_polar
from uniformq.graphs import Graph, bfs_context, full_bipartite, lfr_split
from uniformq.uniform import UniformParams


@pytest.fixture(scope="session")
def c32():
    graph, labels = dual_polar(FormSpec("C", 3, 2))
    return graph


@pytest.fixture(scope="session")
def c32_fb(c32):
    return full_bipartite(c32, 0)


@pytest.fixture(scope="session")
def c32_ctx(c32_fb):
    return bfs_context(c32_fb, 0)


@pytest.fixture(scope="session")
def c32_split(c32_fb, c32_ctx):
    return lfr_split(c32_fb, c32_ctx)


@pytest.fixture(scope="session")
def dp_params():
    return UniformParams.constant(3, Fraction(-4, 3), Fraction(-1, 6), 8)


@pytest.fixture(scope="session")
def cycle6():
    return Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])


def split_at(g: Graph, base: int = 0):
    """The level split of g at the base vertex."""
    return lfr_split(g, bfs_context(g, base))


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Random tree plus a few extra edges: connected, simple, modest degree."""
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    extra = rng.randrange(0, max(1, n // 2) + 1)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges))
