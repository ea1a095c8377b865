"""Orbital-graph balls of the boundary action, as rooted marked graphs.

Graphs are rooted and carry generator-labeled directed edges (y, g(y), g).
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

from .group import BoundaryPoint, boundary_image


@dataclass
class MarkedGraph:
    """Rooted directed graph with labeled edges, at most one per label and end.

    ``labels`` is the declared generating set; a label may have no edges at a
    given vertex (truncated balls lose edges that point outside).  Treated as
    immutable after construction.
    """

    root: str
    vertices: list[str]
    edges: list[tuple[str, str, str]]
    labels: tuple[str, ...]
    _out: dict[tuple[str, str], str] = field(default_factory=dict, repr=False)
    _in: dict[tuple[str, str], str] = field(default_factory=dict, repr=False)

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
            if (src, lab) in self._out or (tgt, lab) in self._in:
                raise ValueError(f"label {lab!r} repeats at a vertex")
            self._out[(src, lab)] = tgt
            self._in[(tgt, lab)] = src

    def edges_at(self, v: str, label: str) -> tuple[str | None, str | None]:
        """The target of v's out-edge and the source of its in-edge with this label, None where absent."""
        return self._out.get((v, label)), self._in.get((v, label))

    def neighbors(self, v: str) -> list[str]:
        """Undirected neighborhood, deterministic order: labels, out then in."""
        seen: list[str] = []
        for lab in self.labels:
            for w in (self._out.get((v, lab)), self._in.get((v, lab))):
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

    One breadth-first pass keyed by the orbit points themselves.  Each edge is
    recorded when its image is computed: by the time the first point at
    distance ``radius`` is expanded, every point of the ball is known.  So
    every vertex has an out-edge for each label whose image lies in the ball,
    which is what assemble_orbital reads.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    gens = tuple(gens)
    found: dict[BoundaryPoint, tuple[str, int]] = {x: (str(x), 0)}
    vertices = [str(x)]
    edges = []
    queue = deque([x])
    while queue:
        y = queue.popleft()
        name, dist = found[y]
        for g in gens:
            # the inverse (the reversal, letters being involutions) only finds points
            words = (g,) if dist == radius or g == g[::-1] else (g, g[::-1])
            for word in words:
                image = boundary_image(word, y)
                if image not in found and dist < radius:
                    found[image] = (str(image), dist + 1)
                    vertices.append(found[image][0])
                    queue.append(image)
                if word == g and image in found:
                    edges.append((name, found[image][0], g))
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
