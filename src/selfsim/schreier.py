"""Orbital-graph balls of the boundary action, as rooted marked graphs.

A ball holds its orbit points in discovery order, root first, and one integer
image table per generator label: images[g][i] is the index of g(points[i]),
or -1 where that image lies outside the ball.  The labels are generator
letters, which act as involutions, so each table is a partial permutation
that is its own inverse, and the graph is undirected; a fixed point of g is a
loop.  The vertex names, the edge list and the CSV are views of the tables.
Orbit points are BoundaryPoints, which are canonical (minimal period, then
shortest preperiod), so two points are equal exactly when they are the same
boundary sequence.  Points of one orbit differ in finitely many coordinates,
so the exact boundary action never leaves this eventually periodic form.

Balls use the word metric of the supplied generating set, not an enumeration
of the whole group; edges between two included vertices are always included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .group import GENERATORS, BoundaryPoint, boundary_image


@dataclass(frozen=True, eq=False)  # arrays have no truth value, so graphs compare by identity
class MarkedGraph:
    """Rooted graph of orbit points with one image table per label.

    points[0] is the root.  images[g] is an int64 array over the points:
    images[g][i] is the index of g(points[i]), -1 where it leaves the graph
    (truncated balls lose edges that point outside).
    """

    points: tuple[BoundaryPoint, ...]
    labels: tuple[str, ...]
    images: dict[str, np.ndarray]

    @cached_property
    def vertices(self) -> list[str]:
        return [str(y) for y in self.points]

    @property
    def root(self) -> str:
        return self.vertices[0]

    @property
    def edges(self) -> list[tuple[str, str, str]]:
        """(source, target, label) for every image inside, by source index, then label."""
        names = self.vertices
        tables = [(g, self.images[g].tolist()) for g in self.labels]
        return [(names[i], names[t[i]], g) for i in range(len(names)) for g, t in tables if t[i] >= 0]

    def to_csv(self) -> str:
        lines = [f"# root={self.root}", "source,target,label"]
        lines.extend(f"{src},{tgt},{lab}" for src, tgt, lab in sorted(self.edges))
        return "\n".join(lines) + "\n"


def orbital_ball(x: BoundaryPoint, gens, radius: int) -> MarkedGraph:
    """Word-metric ball of the orbital graph around x, with internal edges.

    gens is a sequence of distinct generator letters.  One breadth-first pass
    over the points as they are found: by the time the first point at
    distance ``radius`` is expanded, every point of the ball is known, so a
    label's image there is either a known point or outside.  An image
    g(y) = z also gives g(z) = y, so each edge costs one boundary action.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    gens = tuple(gens)
    for g in gens:
        if g not in GENERATORS:
            raise ValueError(f"label {g!r} is not a generator letter")
    if len(set(gens)) != len(gens):
        raise ValueError("duplicate labels")
    index = {x: 0}
    points, dist = [x], [0]
    images: dict[str, list] = {g: [None] for g in gens}  # None: not computed yet
    # the list is the queue: iterating it also reaches the points appended on the way
    for i, y in enumerate(points):
        for g in gens:
            if images[g][i] is not None:
                continue
            z = boundary_image(g, y)
            j = index.get(z)
            if j is None:
                if dist[i] == radius:
                    images[g][i] = -1
                    continue
                j = index[z] = len(points)
                points.append(z)
                dist.append(dist[i] + 1)
                for table in images.values():
                    table.append(None)
            images[g][i], images[g][j] = j, i
    return MarkedGraph(tuple(points), gens, {g: np.array(t, dtype=np.int64) for g, t in images.items()})


def induced_ball(graph: MarkedGraph, center: str, radius: int) -> MarkedGraph:
    """Induced subgraph on vertices within undirected distance radius of center.

    The vertices are renumbered in breadth-first order from center.
    """
    try:
        start = graph.vertices.index(center)
    except ValueError:
        raise ValueError(f"center {center!r} is not a vertex") from None
    order, dist = [start], {start: 0}
    for v in order:
        if dist[v] >= radius:
            continue
        for g in graph.labels:
            w = int(graph.images[g][v])
            if w >= 0 and w not in dist:
                dist[w] = dist[v] + 1
                order.append(w)
    old = np.array(order, dtype=np.int64)
    # one slot past the end stays -1, so an image of -1 renumbers to -1
    renumber = np.full(len(graph.points) + 1, -1, dtype=np.int64)
    renumber[old] = np.arange(old.size)
    images = {g: renumber[table[old]] for g, table in graph.images.items()}
    return MarkedGraph(tuple(graph.points[i] for i in order), graph.labels, images)
