"""Orbital-graph balls of the boundary action, as rooted marked graphs.

A ball holds its vertex names in breadth-first order, root first, and one
integer image table per generator label: images[g][i] is the index of the
image of vertex i under g, or -1 where that image lies outside the ball.  The
labels are generator letters, which act as involutions, so each table is a
partial permutation that is its own inverse, and the graph is undirected; a
fixed point of g is a loop.  The CSV, one row per image inside, is the one
view of the tables.  Vertex names are canonical BoundaryPoint strings (minimal period,
then shortest preperiod), so two vertices are equal exactly when they are the
same boundary sequence.  No name is parsed back into a point.

Orbits are lines (Bartholdi-Grigorchuk, "On the spectrum of Hecke type
operators related to some fractal groups"; Grigorchuk-Lenz-Nagnibeda,
"Spectra of Schreier graphs of Grigorchuk's group and Schroedinger operators
with aperiodic order"), and the line has a coordinate.  Read a point y as a
2-adic integer, coordinate i as bit i.  Then y = NOT gray(m) with
gray(m) = m XOR (m >> 1), and one step along the line is m -> m +- 1, which
flips the one coordinate v2 of the larger end, the flip position of both
ends, so group._moves says which letters take it: a flip of coordinate 0 is
the a edge, and one of f >= 1 a b, c and d edge whose loop letter (fixing
both ends) is fixed by (f - 1) mod 3.  gray(m) = gray(-1 - m), so the orbit of 1^inf,
where m is a nonnegative integer, is one-ended: crossing from 0 to -1 is the
step where b, c and d all loop.  Every other orbit is two-ended.  A ball of
radius r reads only the low bits of m and, past them, at most one carry or
borrow run, so it is built in whole-array passes without acting on a point.

Balls use the word metric of the supplied generating set, not an enumeration
of the whole group; edges between two included vertices are always included.
A generating set that leaves out every letter of some step cuts the line
there.  A ball is a prefix of every larger ball around the same point, so
hecke reads the image of a word of length L on the radius-r ball off the
tables of the radius r + L - 1 ball, which it reads itself: no letter moves
a point more than one step.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .group import GENERATORS, BoundaryPoint, _moves, _tail_xor

_FOLD = -1  # step flip of the one-ended line's end, where b, c and d all loop
_CHUNK_CHARS = 1 << 20  # characters of CSV rows formatted at once, at most


@dataclass(frozen=True, eq=False)  # arrays have no truth value, so graphs compare by identity
class MarkedGraph:
    """Rooted graph of orbit points with one image table per label.

    vertices[0] is the root.  images[g] is an int64 array over the vertices:
    images[g][i] is the index of the image of vertex i, -1 where it leaves
    the graph (truncated balls lose edges that point outside).  to_csv writes
    the edges inside, sorted as (source, target, label) strings, a chunk of
    rows at a time.
    """

    vertices: tuple[str, ...]
    labels: tuple[str, ...]
    images: dict[str, np.ndarray]

    @property
    def root(self) -> str:
        return self.vertices[0]

    def _edge_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(source, target, label position) of every image inside, by source index, then label."""
        table = np.empty((len(self.vertices), len(self.labels)), dtype=np.int64)
        for k, g in enumerate(self.labels):
            table[:, k] = self.images[g]
        src, lab = np.nonzero(table >= 0)
        return src, table[src, lab], lab

    def to_csv(self) -> Iterator[str]:
        """The CSV as text chunks: root and column header, then rows, _CHUNK_CHARS characters or one row at a time."""
        names, labels = self.vertices, self.labels
        # names are distinct, so sorting rows by name ranks sorts them as (source, target, label) strings
        rank = np.empty(len(names), dtype=np.int64)
        rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
        label_rank = np.argsort(np.argsort(labels))
        src, tgt, lab = self._edge_index()
        order = np.lexsort((label_rank[lab], rank[tgt], rank[src]))
        src, tgt, lab = src[order], tgt[order], lab[order]
        yield f"# root={self.root}\nsource,target,label\n"
        step = max(1, _CHUNK_CHARS // (2 * max(map(len, names)) + 4))  # a row: two names, a letter, 3 separators
        for start in range(0, src.size, step):
            rows = zip(src[start : start + step].tolist(), tgt[start : start + step].tolist(),
                       lab[start : start + step].tolist())
            yield "".join(f"{names[s]},{names[t]},{labels[g]}\n" for s, t, g in rows)


def _bit_length(v: np.ndarray) -> np.ndarray:
    """Bit lengths of nonnegative int64 values below 2^53 (0 for 0)."""
    return np.frexp(v.astype(float))[1].astype(np.int64)


def _line_coordinate(x: BoundaryPoint, low: int) -> tuple[int, int, int | None]:
    """(m mod 2^low, carry flip, borrow flip) for the line coordinate m of x.

    In the orbit of 1^inf, m is the representative that is a nonnegative
    integer.  With h = m >> low, a step from m across a multiple of 2^low
    flips coordinate low + v2(h + 1) upwards (the carry flip) and low + v2(h)
    downwards (the borrow flip, None where h = 0 and the line ends below m).
    In a two-ended orbit m is eventually periodic with period 2 |period| from
    the preperiod on and not eventually constant, so both runs of equal bits
    that v2 reads end within the prefix read here.
    """
    n = max(len(x.preperiod), low) + 2 * len(x.period) + 1
    mask = (1 << n) - 1
    z = ~int(x.prefix(n)[::-1], 2) & mask  # gray(m), coordinate i as bit i
    parity = z  # bit i becomes the parity of bits 0..i of z
    shift = 1
    while shift < n:
        parity ^= parity << shift
        shift *= 2
    m = (parity << 1) & mask  # m with bit 0 clear; NOT m is the other representative
    if x.period == "1" and parity >> (n - 1) & 1:
        m ^= mask  # clear the high bits: the one-ended orbit's m is a nonnegative integer
    h = m >> low

    def v2(v: int) -> int:
        return (v & -v).bit_length() - 1

    return m & ((1 << low) - 1), low + v2(h + 1), low + v2(h) if h else None


def _names(x: BoundaryPoint, offsets: np.ndarray, low: int, lo: int, carry_flip: int, borrow_flip) -> list[str]:
    """Canonical names of the points offsets[i] steps along the line from x.

    (lo, carry_flip, borrow_flip) is _line_coordinate(x, low).  The
    coordinates flipped from x are gray of the change in m, whose part
    at and above low is one carry or borrow run: that part flips one far
    coordinate, carry_flip or borrow_flip, and coordinate low - 1.  The
    preperiod of a point is as long as _tail_xor of x, with these flips
    applied, is in bits, and its period is that of x read from there.  All
    names are written into one byte array, a row each, padded with NUL bytes.
    """
    u = lo + offsets
    carry, borrow = u >= 1 << low, u < 0
    change = lo ^ (u & ((1 << low) - 1))
    low_flips = change ^ (change >> 1) ^ ((carry | borrow).astype(np.int64) << (low - 1))
    far, far_bits = carry + 2 * borrow, (None, carry_flip, borrow_flip)
    pre, per, p = x.preperiod, x.period, len(x.period)
    start = -len(pre) % p
    rotated = per[start:] + per[:start]  # coordinate i of the periodic sequence is rotated[i % p]
    diff = _tail_xor(pre, per)
    ell = np.array([((diff >> low << low) ^ (0 if f is None else 1 << f)).bit_length() for f in far_bits])[far]
    short = ell == 0
    ell[short] = _bit_length((diff & ((1 << low) - 1)) ^ low_flips[short])
    top = int(ell.max())
    width = top + p + 2  # bits, "(", period, ")"
    cells = np.empty((ell.size, width), dtype=np.uint8)
    cells[:, :top] = np.frombuffer(x.prefix(top).encode(), dtype=np.uint8)
    cols = min(low, top)
    cells[:, :cols] ^= (low_flips[:, None] >> np.arange(cols) & 1).astype(np.uint8)
    for k, f in enumerate(far_bits):
        if f is not None and f < top:
            cells[far == k, f] ^= 1
    for e in np.unique(ell).tolist():
        rows = ell == e
        cells[rows, e] = ord("(")
        cells[rows, e + 1 : e + 1 + p] = np.frombuffer((rotated[e % p :] + rotated[: e % p]).encode(), dtype=np.uint8)
        cells[rows, e + 1 + p] = ord(")")
        cells[rows, e + 2 + p :] = 0  # a bytes view of a row ends at its first trailing NUL
    return [row.decode("ascii") for row in cells.view(f"S{width}").ravel()]


def _line_tables(x: BoundaryPoint, gens, radius: int):
    """(image tables, offsets, line coordinate) of the ball of radius around x.

    The ball is the one orbital_ball(x, gens, radius) describes, and radius
    must be >= 0.  offsets[i] is the number of steps along the line from x
    to vertex i, and the coordinate is (low, *_line_coordinate(x, low)),
    which _names reads.  A radius-r ball is the first vertices of any
    larger ball around x, those with |offset| <= r, numbered alike, and its
    image tables are the larger ball's cut there.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    gens = tuple(gens)
    for g in gens:
        if g not in GENERATORS:
            raise ValueError(f"label {g!r} is not a generator letter")
    if len(set(gens)) != len(gens):
        raise ValueError("duplicate labels")
    low = radius.bit_length() + 1  # m + k carries or borrows at most once past bit low for |k| <= radius + 1
    lo, carry_flip, borrow_flip = _line_coordinate(x, low)
    # flip[j] is the coordinate that step j, from m + j - 1 to m + j, flips: v2(m + j)
    step = np.arange(-radius, radius + 2)
    u = lo + step
    below = u & ((1 << low) - 1)
    flip = _bit_length(below & -below) - 1
    flip[u == 0] = _FOLD if borrow_flip is None else borrow_flip
    flip[u == 1 << low] = carry_flip
    moves = {g: _moves(g, flip) for g in gens}
    taken = np.zeros(step.size, dtype=bool)
    for move in moves.values():
        taken |= move
    # the sides run over steps 1, 2, ... upwards and 0, -1, ... downwards, up to the first step not taken
    n_up = int(np.argmin(np.append(taken[radius + 1 : 2 * radius + 1], False)))
    n_down = int(np.argmin(np.append(taken[radius:0:-1], False)))
    offsets = np.arange(-n_down, n_up + 1)
    # a breadth-first search finds first the side that the earliest letter of gens moving the root takes
    first_up = next((bool(moves[g][radius + 1]) for g in gens if moves[g][radius + 1] or moves[g][radius]), True)
    order = np.lexsort(((offsets > 0) != first_up, np.abs(offsets)))
    # index[k + n_down + 1] is the breadth-first index of offset k; one slot past each end stays -1
    index = np.full(offsets.size + 2, -1, dtype=np.int64)
    index[order + 1] = np.arange(offsets.size)
    k = offsets[order]  # offsets in breadth-first order
    at = k + radius  # the steps to offsets k + 1 and k - 1 are step[at + 1] and step[at]
    images = {g: index[k + move[at + 1] - move[at] + n_down + 1] for g, move in moves.items()}
    return images, k, (low, lo, carry_flip, borrow_flip)


def orbital_ball(x: BoundaryPoint, gens, radius: int) -> MarkedGraph:
    """Word-metric ball of the orbital graph around x, with internal edges.

    gens is a sequence of distinct generator letters.  The ball is the
    stretch of the line within radius steps of x on either side, cut at the
    first step that no letter of gens takes and at the one-ended orbit's end.
    Its vertices are numbered as a breadth-first search from x would find
    them: the root, then the two sides interleaved, the side reached by the
    earlier letter of gens first: a prefix of every larger ball around x.
    """
    images, offsets, coordinate = _line_tables(x, gens, radius)
    return MarkedGraph(tuple(_names(x, offsets, *coordinate)), tuple(gens), images)
