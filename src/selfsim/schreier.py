"""Orbital-graph balls of the boundary action, as rooted marked graphs.

Graphs are rooted and carry generator-labeled directed edges (y, g(y), g).
The labels are generator letters, which act as involutions, so every edge
(y, z, g) comes with its reverse (z, y, g) and the graph is undirected; a
fixed point of g carries one loop.
Orbit points are BoundaryPoints, which are canonical (minimal period, then
shortest preperiod), so two points are equal exactly when they are the same
boundary sequence.  Points of one orbit differ in finitely many coordinates,
so the exact boundary action never leaves this eventually periodic form.

Balls use the word metric of the supplied generating set, not an enumeration
of the whole group; edges between two included vertices are always included.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .group import GENERATORS, BoundaryPoint, boundary_image


@dataclass
class MarkedGraph:
    """Rooted graph with labeled edges, at most one per label leaving a vertex.

    ``labels`` is the declared generating set; a label may have no edge at a
    given vertex (truncated balls lose edges that point outside).  Treated as
    immutable after construction.
    """

    root: str
    vertices: list[str]
    edges: list[tuple[str, str, str]]
    labels: tuple[str, ...]
    _out: dict[tuple[str, str], str] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertex identifiers")
        if self.root not in vset:
            raise ValueError(f"root {self.root!r} is not a vertex")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels")
        for src, tgt, lab in self.edges:
            if lab not in self.labels:
                raise ValueError(f"edge label {lab!r} not declared")
            if src not in vset or tgt not in vset:
                raise ValueError(f"edge ({src!r}, {tgt!r}) leaves the vertex set")
            if (src, lab) in self._out:
                raise ValueError(f"label {lab!r} repeats at a vertex")
            self._out[(src, lab)] = tgt

    def image(self, v: str, label: str) -> str | None:
        """The target of v's edge with this label, None where it leaves the graph."""
        return self._out.get((v, label))

    def neighbors(self, v: str) -> list[str]:
        """Neighborhood in label order, without repeats."""
        seen: list[str] = []
        for lab in self.labels:
            w = self._out.get((v, lab))
            if w is not None and w not in seen:
                seen.append(w)
        return seen

    def to_csv(self) -> str:
        lines = [f"# root={self.root}", "source,target,label"]
        for src, tgt, lab in sorted(self.edges):
            lines.append(f"{src},{tgt},{lab}")
        return "\n".join(lines) + "\n"


def orbital_ball(x: BoundaryPoint, gens, radius: int) -> MarkedGraph:
    """Word-metric ball of the orbital graph around x, with internal edges.

    gens is a sequence of generator letters.  One breadth-first pass keyed by
    the orbit points themselves.  Each edge is recorded when its image is
    computed: by the time the first point at distance ``radius`` is expanded,
    every point of the ball is known.  So every vertex has an edge for each
    label whose image lies in the ball, which is what assemble_orbital reads.
    An image g(y) = z also gives g(z) = y, so each edge costs one boundary
    action.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    gens = tuple(gens)
    for g in gens:
        if g not in GENERATORS:
            raise ValueError(f"label {g!r} is not a generator letter")
    found: dict[BoundaryPoint, tuple[str, int]] = {x: (str(x), 0)}
    vertices = [str(x)]
    edges = []
    known: dict[tuple[str, str], str] = {}  # (z, g) -> y for every recorded edge (y, z, g)
    queue = deque([x])
    while queue:
        y = queue.popleft()
        name, dist = found[y]
        for g in gens:
            target = known.get((name, g))
            if target is None:
                image = boundary_image(g, y)
                if image not in found:
                    if dist == radius:
                        continue
                    found[image] = (str(image), dist + 1)
                    vertices.append(found[image][0])
                    queue.append(image)
                target = found[image][0]
                known[(target, g)] = name
            edges.append((name, target, g))
    return MarkedGraph(vertices[0], vertices, edges, gens)


def induced_ball(graph: MarkedGraph, center: str, radius: int) -> MarkedGraph:
    """Induced subgraph on vertices within undirected distance radius of center."""
    dist = {center: 0}
    queue = deque([center])
    order = [center]
    while queue:
        v = queue.popleft()
        if dist[v] >= radius:
            continue
        for w in graph.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                order.append(w)
                queue.append(w)
    inside = set(order)
    edges = [e for e in graph.edges if e[0] in inside and e[1] in inside]
    return MarkedGraph(center, order, edges, graph.labels)
