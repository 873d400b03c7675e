"""Graphs, base-point distance partitions and the lowering/flat/raising split.

A graph is simple, undirected and connected (validated at
construction), with 0-based dense vertex indices.  Relative to a base
vertex x the vertex set splits into levels by distance; the i-th dual
idempotent is the diagonal 0/1 projector onto level i and is kept as an
index set, materialised to a matrix only on demand.

The adjacency matrix splits as A = L + F + R where an edge contributes
to L (lowering) when it steps one level toward the base, to F (flat)
when it stays within a level, and to R (raising) otherwise; R is the
transpose of L and F = 0 exactly when the graph is bipartite.  Walks
are classified by their shape: the word over {l, f, r} recording the
level change of each step.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

from .linalg import ExactMatrix

_STEP = {"l": -1, "f": 0, "r": 1}


class Graph:
    """A simple undirected graph on the vertices 0..n-1.

    ``adj[v]`` is the tuple of v's neighbours in increasing order.  Every
    constructor goes through ``__init__``, which sorts the lists, and
    ``verify_tridiagonal`` relies on the order: it bisects them.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[Sequence[int]]):
        """Adjacency lists of a simple undirected graph: v is listed at u
        exactly when u is listed at v, with no loops or repeats."""
        if len(adj) != n:
            raise ValueError(f"{len(adj)} adjacency lists for n={n}")
        self.n = n
        self.adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        # u ascends, so each back[v] comes out sorted and must equal adj[v]
        back: list[list[int]] = [[] for _ in range(n)]
        for u, nbrs in enumerate(self.adj):
            if nbrs and not (0 <= nbrs[0] and nbrs[-1] < n):
                raise ValueError(f"neighbour of vertex {u} out of range for n={n}")
            for i, v in enumerate(nbrs):
                if v == u:
                    raise ValueError(f"loop at vertex {u}")
                if i and nbrs[i - 1] == v:
                    raise ValueError(f"duplicate edge ({u},{v})")
                back[v].append(u)
        for v, nbrs in enumerate(self.adj):
            if tuple(back[v]) != nbrs:
                raise ValueError(f"adjacency lists are not symmetric at vertex {v}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u].append(v)
            if u != v:
                adj[v].append(u)
        g = Graph(n, adj)
        g._check_connected()
        return g

    def _check_connected(self) -> None:
        if self.n == 0:
            raise ValueError("empty graph")
        seen = [False] * self.n
        seen[0] = True
        queue = deque([0])
        count = 1
        while queue:
            u = queue.popleft()
            for w in self.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    queue.append(w)
        if count != self.n:
            raise ValueError("graph is not connected")

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    @property
    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def is_regular(self) -> Optional[int]:
        degs = {len(a) for a in self.adj}
        return degs.pop() if len(degs) == 1 else None

    def adjacency_matrix(self) -> ExactMatrix:
        m = ExactMatrix.zeros(self.n, self.n)
        for u in range(self.n):
            base = u * self.n
            for v in self.adj[u]:
                m.entries[base + v] = 1
        return m

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges})"


class BaseContext:
    """Distance partition of a graph relative to a base vertex.

    ``levels[i]`` lists the vertices at distance i in increasing order,
    and ``position[v]`` is v's index in its level: the level coordinates
    that level-local vectors use.
    """

    __slots__ = ("graph", "base", "dist", "eccentricity", "levels",
                 "position")

    def __init__(self, graph: Graph, base: int, dist: Sequence[int]):
        self.graph = graph
        self.base = base
        self.dist = tuple(dist)
        self.eccentricity = max(dist)
        levels: list[list[int]] = [[] for _ in range(self.eccentricity + 1)]
        position = [0] * len(dist)
        for v, d in enumerate(dist):
            position[v] = len(levels[d])
            levels[d].append(v)
        self.levels = tuple(tuple(lv) for lv in levels)
        self.position = tuple(position)

    def dual_idempotent(self, i: int) -> ExactMatrix:
        """The diagonal 0/1 projector onto level i, as a dense matrix."""
        n = self.graph.n
        m = ExactMatrix.zeros(n, n)
        if 0 <= i <= self.eccentricity:
            for v in self.levels[i]:
                m.entries[v * n + v] = 1
        return m


def bfs_context(g: Graph, x: int) -> BaseContext:
    """Breadth-first distance partition from x."""
    if not (0 <= x < g.n):
        raise ValueError(f"base vertex {x} out of range")
    dist = [-1] * g.n
    dist[x] = 0
    queue = deque([x])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    if min(dist) < 0:
        raise ValueError("graph is not connected")
    return BaseContext(g, x, dist)


class LFRSplit:
    """The split A = L + F + R relative to a base context.

    Neighbour lists sorted by level step are the primary representation;
    ``lower`` and ``raise_`` apply L and R to level-local vectors, and
    the dense matrices are built lazily.  ``_equations`` holds the
    uniform identity's distinct equations per level, built by
    ``uniformq.uniform`` on first use and read by its fits and its
    verification.
    """

    __slots__ = ("ctx", "down", "same", "up", "_L", "_F", "_R", "_equations")

    def __init__(self, ctx: BaseContext):
        g = ctx.graph
        dist = ctx.dist
        self.ctx = ctx
        self.down = tuple(
            tuple(w for w in g.adj[v] if dist[w] == dist[v] - 1)
            for v in range(g.n)
        )
        self.same = tuple(
            tuple(w for w in g.adj[v] if dist[w] == dist[v])
            for v in range(g.n)
        )
        self.up = tuple(
            tuple(w for w in g.adj[v] if dist[w] == dist[v] + 1)
            for v in range(g.n)
        )
        self._L = None
        self._F = None
        self._R = None
        self._equations = None

    @property
    def graph(self) -> Graph:
        return self.ctx.graph

    def is_bipartite(self) -> bool:
        return all(not s for s in self.same)

    def _materialize(self, nbrs) -> ExactMatrix:
        # (z,y)-entry is 1 when the edge y -> z performs this step type,
        # i.e. column y lists the step targets z.
        n = self.graph.n
        m = ExactMatrix.zeros(n, n)
        for y in range(n):
            for z in nbrs[y]:
                m.entries[z * n + y] = 1
        return m

    @property
    def L(self) -> ExactMatrix:
        if self._L is None:
            self._L = self._materialize(self.down)
        return self._L

    @property
    def F(self) -> ExactMatrix:
        if self._F is None:
            self._F = self._materialize(self.same)
        return self._F

    @property
    def R(self) -> ExactMatrix:
        if self._R is None:
            self._R = self._materialize(self.up)
        return self._R

    # level-local vectors: a vector on level i lists its coordinates in
    # ctx.levels[i] order; levels outside 0..eps have no coordinates

    def size(self, i: int) -> int:
        levels = self.ctx.levels
        return len(levels[i]) if 0 <= i < len(levels) else 0

    def lower(self, i: int, vec: Sequence) -> list:
        """L of a vector on level i, a vector on level i-1."""
        return self._step(self.down, i, vec, i - 1)

    def raise_(self, i: int, vec: Sequence) -> list:
        """R of a vector on level i, a vector on level i+1."""
        return self._step(self.up, i, vec, i + 1)

    def _step(self, nbrs, i: int, vec: Sequence, j: int) -> list:
        # each unit at y scatters onto the step targets of y
        out = [0] * self.size(j)
        if not self.size(i):
            return out
        pos = self.ctx.position
        for y, val in zip(self.ctx.levels[i], vec):
            if val:
                for z in nbrs[y]:
                    out[pos[z]] += val
        return out


def lfr_split(g: Graph, ctx: BaseContext) -> LFRSplit:
    if ctx.graph is not g and ctx.graph != g:
        raise ValueError("context was built from a different graph")
    return LFRSplit(ctx)


def _validate_shape(shape: str) -> None:
    if not shape:
        raise ValueError("shape must be nonempty")
    bad = set(shape) - set(_STEP)
    if bad:
        raise ValueError(f"invalid shape characters: {sorted(bad)}")


def walk_counts_from(g: Graph, ctx: BaseContext, shape: str, y: int) -> list[int]:
    """Count walks from y matching the shape, per endpoint.

    Deliberately naive depth-first expansion of every walk; this is the
    trusted oracle and the matrix products are the fast path.
    """
    _validate_shape(shape)
    dist = ctx.dist
    counts = [0] * g.n
    length = len(shape)

    def expand(u: int, k: int) -> None:
        if k == length:
            counts[u] += 1
            return
        target = dist[u] + _STEP[shape[k]]
        for w in g.adj[u]:
            if dist[w] == target:
                expand(w, k + 1)

    expand(y, 0)
    return counts


def walk_shape_count(g: Graph, ctx: BaseContext, shape: str, y: int, z: int) -> int:
    """Number of yz-walks whose step types spell the shape."""
    return walk_counts_from(g, ctx, shape, y)[z]


def walk_matrix(split: LFRSplit, shape: str) -> ExactMatrix:
    """Matrix whose (z,y)-entry counts yz-walks of the given shape.

    The walk applies its first step first, so the product is taken over
    the reversed shape: shape "llr" gives R * L * L.
    """
    _validate_shape(shape)
    mats = {"l": split.L, "f": split.F, "r": split.R}
    result = None
    for ch in shape:
        m = mats[ch]
        result = m if result is None else m * result
    return result


def full_bipartite(g: Graph, x: int) -> Graph:
    """Delete all edges joining vertices equidistant from x."""
    ctx = bfs_context(g, x)
    dist = ctx.dist
    edges = [(u, v) for u, v in g.edges() if dist[u] != dist[v]]
    return Graph.from_edges(g.n, edges)


# -- edge-list text format ---------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse "n m" followed by m lines "u v" (0 <= u < v < n).

    Lines starting with "#" and blank lines are ignored.  Duplicate,
    out-of-range or malformed edges raise ValueError, and so does a
    header with fewer than n - 1 edges, which cannot connect n vertices.
    """
    lines = [
        ln.strip() for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"header must be 'n m', got {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"malformed edge line {ln!r}") from None
        if not (0 <= u < v < n):
            raise ValueError(f"edge ({u},{v}) violates 0 <= u < v < {n}")
        edges.append((u, v))
    if n > m + 1:  # before n adjacency lists are allocated
        raise ValueError(f"graph is not connected: {n} vertices need at "
                         f"least {n - 1} edges, the header gives {m}")
    return Graph.from_edges(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
