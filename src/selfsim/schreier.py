"""Schreier level graphs, orbital-graph balls, and marked-graph comparison.

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

from .group import BoundaryPoint, act_vertex, boundary_image
from . import group

DEFAULT_GENS = group.GENERATORS


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

    def out_neighbor(self, v: str, label: str) -> str | None:
        return self._out.get((v, label))

    def in_neighbor(self, v: str, label: str) -> str | None:
        return self._in.get((v, label))

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

    @staticmethod
    def from_csv(text: str, labels: tuple[str, ...] | None = None) -> "MarkedGraph":
        root = None
        edges: list[tuple[str, str, str]] = []
        vertices: list[str] = []
        seen: set[str] = set()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line[1:].strip().startswith("root="):
                    root = line.split("root=", 1)[1].strip()
                continue
            if line == "source,target,label":
                continue
            src, tgt, lab = line.split(",")
            edges.append((src, tgt, lab))
            for v in (src, tgt):
                if v not in seen:
                    seen.add(v)
                    vertices.append(v)
        if root is None:
            raise ValueError("missing '# root=' header")
        if root not in seen:
            vertices.insert(0, root)
        if labels is None:
            labels = tuple(sorted({lab for _, _, lab in edges}))
        return MarkedGraph(root, vertices, edges, labels)


def level_graph(n: int, gens) -> MarkedGraph:
    """Schreier graph of the level-n vertex action for the given words."""
    if n < 0:
        raise ValueError("level must be >= 0")
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one generator")
    vertices = [""] if n == 0 else [format(i, f"0{n}b") for i in range(2**n)]
    edges = [(v, act_vertex(g, v), g) for v in vertices for g in gens]
    return MarkedGraph("0" * n, vertices, edges, gens)


def orbital_ball(x: BoundaryPoint, gens, radius: int) -> MarkedGraph:
    """Word-metric ball of the orbital graph around x, with internal edges.

    One breadth-first pass keyed by the orbit points themselves.  Each edge is
    recorded when its image is computed: by the time the first point at
    distance ``radius`` is expanded, every point of the ball is known.
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


def _forced_map(g1: MarkedGraph, g2: MarkedGraph):
    """Unique root- and label-preserving correspondence on the reachable part.

    Labeled out- and in-edges are unique per vertex, so any isomorphism is
    forced along a BFS from the roots; returns None on a structural clash.
    """
    mapping = {g1.root: g2.root}
    reverse = {g2.root: g1.root}
    queue = deque([g1.root])
    while queue:
        u = queue.popleft()
        v = mapping[u]
        for lab in g1.labels:
            for pick1, pick2 in ((g1.out_neighbor, g2.out_neighbor), (g1.in_neighbor, g2.in_neighbor)):
                nu, nv = pick1(u, lab), pick2(v, lab)
                if (nu is None) != (nv is None):
                    return None
                if nu is None:
                    continue
                if nu in mapping:
                    if mapping[nu] != nv:
                        return None
                    continue
                if nv in reverse:
                    return None
                mapping[nu] = nv
                reverse[nv] = nu
                queue.append(nu)
    return mapping


def balls_isomorphic(g1: MarkedGraph, g2: MarkedGraph) -> bool:
    """Root-, direction- and label-preserving isomorphism of marked graphs.

    Both graphs must be connected, as every ball is; a vertex that the forced
    map from the roots leaves unreached raises ValueError.
    """
    if set(g1.labels) != set(g2.labels):
        raise ValueError("graphs carry different label sets")
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False
    mapping = _forced_map(g1, g2)
    if mapping is None:
        return False
    if len(mapping) < len(g1.vertices):
        raise ValueError("graphs are disconnected: only the component of the root is compared")
    return True


def local_iso_probe(
    x: BoundaryPoint,
    y: BoundaryPoint,
    k: int,
    search_radius: int,
    gens=DEFAULT_GENS,
) -> str | None:
    """Search the orbital graph of y for a vertex whose k-ball matches x's.

    Scans candidates in breadth-first order out to search_radius and returns
    the serialized first match, or None.  A None is inconclusive evidence:
    local isomorphism is an almost-everywhere phenomenon with no effective
    search bound.
    """
    if k > search_radius:
        raise ValueError("search_radius must be >= k")
    gens = tuple(gens)
    target = orbital_ball(x, gens, k)
    big = orbital_ball(y, gens, search_radius + k)
    for v in induced_ball(big, big.root, search_radius).vertices:
        if balls_isomorphic(target, induced_ball(big, v, k)):
            return v
    return None
