"""Exact arithmetic in the four-generator self-similar group on the binary tree.

The four generators act by the wreath recursions

    a = swap . (e, e),   b = (a, c),   c = (a, d),   d = (e, b),

where the pair gives the sections at the two level-1 subtrees and ``swap``
exchanges them.  Group elements are plain words over "abcd"; the empty word is
the identity and every generator is an involution, so no inverse letters are
needed.  Words compose with the rightmost letter acting first.

Every section of a generator is again a generator or the identity, and the
recursions unfold into one rule, _moves: a flips coordinate 0, and b, c and d
flip the coordinate f just after the first 0 (their flip position) unless
they are the loop letter _LOOP[(f - 1) % 3] there.  The boundary action,
the level permutations that act on vertices (hecke), the orbital lines
(schreier) and the rigidity depths all read it.

Provides:
    - wreath_decompose: the one-pass level-1 decomposition of an arbitrary
      word into (root swap, section at 0, section at 1),
    - BoundaryPoint: eventually periodic boundary sequences with an exact
      group action (boundary_image: one walk over one bit prefix),
    - rigidity_depth: first level at which a generator's section dies, along
      every ray of a boolean array at once, read off each ray's first 0.

All functions are pure; values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GENERATORS = ("a", "b", "c", "d")

# Level-1 data per generator: (root swap, section at 0, section at 1).
_GEN_DECOMP = {
    "a": (True, "", ""),
    "b": (False, "a", "c"),
    "c": (False, "a", "d"),
    "d": (False, "", "b"),
}
# the nucleus e, a, b, c, d: its elements' level-1 triples (the keys of their sections) to their letters
_NUCLEUS = {**{v: k for k, v in _GEN_DECOMP.items()}, (False, "", ""): ""}

_LOOP = "dcb"  # the one of b, c, d fixing a ray whose first 0 is at coordinate f - 1, by (f - 1) mod 3

# Klein four-group table for the {b, c, d} letters: any two distinct ones
# multiply to the third, in either order.
_KLEIN = {
    "bc": "d", "cb": "d",
    "bd": "c", "db": "c",
    "cd": "b", "dc": "b",
}

_ROW_BLOCK = 1 << 16  # rays whose int64 flip positions rigidity_depth holds at once (512 KB)


def _check_word(word: str) -> None:
    for ch in word:
        if ch not in _GEN_DECOMP:
            raise ValueError(f"bad generator letter {ch!r} in word {word!r}")


_NOT_BITS = str.maketrans("", "", "01")


def _check_bits(bits: str, what: str) -> None:
    bad = bits.translate(_NOT_BITS)  # every character but 0 and 1, in order, in one pass
    if bad:
        raise ValueError(f"bad bit {bad[0]!r} in {what} {bits!r}")


def reduce_word(word: str) -> str:
    """Free reduction using the involution and Klein-four relations.

    The rewriting system (xx -> e for every letter, xy -> z for distinct
    x, y, z in {b,c,d}) is confluent, so the result is a canonical form for
    the quotient monoid; equality in the group is equality of _element_key.
    """
    _check_word(word)
    out: list[str] = []
    for ch in word:
        if out:
            prev = out[-1]
            if prev == ch:
                out.pop()
                continue
            merged = _KLEIN.get(prev + ch)
            if merged is not None:
                out[-1] = merged
                continue
        out.append(ch)
    return "".join(out)


def wreath_decompose(word: str) -> tuple[bool, str, str]:
    """(root swap, section at 0, section at 1) of the product of the letters of ``word``, in one pass.

    A root swap sends the letters before it to the other subtree, so it swaps
    the two section lists; each letter then appends its own two sections.
    The sections are unreduced letter-by-letter concatenations.
    """
    _check_word(word)
    swap, first, second = False, [], []
    for ch in word:
        turns, own0, own1 = _GEN_DECOMP[ch]
        if turns:
            swap, first, second = not swap, second, first
        first.append(own0)
        second.append(own1)
    return swap, "".join(first), "".join(second)


def _moves(letter: str, f):
    """Whether the generator flips coordinate f when f is its flip position (scalars or arrays); b, c, d need f >= 1."""
    if letter == "a":
        return f == 0
    return (f >= 1) & ((f - 1) % 3 != _LOOP.index(letter))


def _minimal_period(period: str) -> str:
    # the least shift that maps a nonempty period onto itself divides its length and is its least period
    return period[: (period + period).find(period, 1)]


def _tail_xor(pre: str, period: str) -> int:
    """pre XOR the periodic sequence that pre precedes, coordinate i as bit i; its bit length is the least preperiod."""
    if not pre:
        return 0
    tail = period * (len(pre) // len(period) + 1)  # ends where coordinate len(pre) starts a period
    return int(pre[::-1], 2) ^ int(tail[::-1][: len(pre)], 2)


@dataclass(frozen=True)
class BoundaryPoint:
    """Eventually periodic point of the tree boundary: preperiod.period^inf.

    Canonicalized on construction (minimal period, then shortest preperiod),
    so structural equality coincides with equality of boundary sequences.
    Serialized as "preperiod(period)", e.g. "01(10)".
    """

    preperiod: str
    period: str

    def __post_init__(self) -> None:
        _check_bits(self.preperiod, "preperiod")
        _check_bits(self.period, "period")
        if not self.period:
            raise ValueError("period must be nonempty")
        pre, per = self.preperiod, _minimal_period(self.period)
        if pre and pre[-1] == per[-1]:
            # the preperiod's last k bits continue the period backwards: drop them and rotate the period by k
            k = len(pre) - _tail_xor(pre, per).bit_length()
            cut = len(per) - k % len(per)
            pre, per = pre[: len(pre) - k], per[cut:] + per[:cut]
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    @staticmethod
    def parse(text: str) -> "BoundaryPoint":
        if not text.endswith(")") or "(" not in text:
            raise ValueError(f"boundary point must look like 'pre(period)', got {text!r}")
        pre, per = text[:-1].split("(", 1)
        return BoundaryPoint(pre, per)

    def __str__(self) -> str:
        return f"{self.preperiod}({self.period})"

    def prefix(self, n: int) -> str:
        if n < 0:
            raise ValueError("prefix length must be >= 0")
        if n <= len(self.preperiod):
            return self.preperiod[:n]
        k = n - len(self.preperiod)
        reps = k // len(self.period) + 1
        return (self.preperiod + self.period * reps)[:n]


def boundary_image(word: str, x: BoundaryPoint) -> BoundaryPoint:
    """Exact image of an eventually periodic point under a group word; x itself if no letter moves it.

    Walks the reduced word w, rightmost letter first, over one byte array of
    the first n = len(preperiod) + len(period) * |w| + 1 bits of x and builds
    one point, its preperiod reaching the furthest flip.  a flips coordinate
    0, and b, c and d the one just after the first 0, or none, so each letter
    removes at most one 0 from any stretch.  Before the k-th letter a 0
    therefore lies at or before the k-th 0 of x, before len(preperiod) +
    len(period) * k when the period holds a 0; when it does not, every 0
    lies in the preperiod or at an earlier flip, so the flips reach at most
    one place further per letter.  Either way every flip lies before n.
    """
    word = reduce_word(word)
    pre, per = x.preperiod, x.period
    n = len(pre) + len(per) * len(word) + 1
    bits = bytearray(x.prefix(n), "ascii")
    top = 0  # one past the furthest flip
    for ch in reversed(word):
        f = 0 if ch == "a" else bits.find(b"0") + 1  # 0 for b, c and d when there is no 0, which never moves
        if _moves(ch, f):
            bits[f] ^= 1  # "0" and "1" differ in their lowest bit
            top = max(top, f + 1)
    if not top:
        return x
    top = max(top, len(pre))  # the bits from top on are those of x
    shift = (top - len(pre)) % len(per)
    return BoundaryPoint(bits[:top].decode(), per[shift:] + per[:shift])


def _element_key(word: str) -> str | tuple:
    """Canonical key of the word's group element: two words get equal keys exactly when they are equal.

    A reduced word of at most one letter is its own key, a longer one the
    triple (swap, key(section0), key(section1)), or the nucleus letter with
    that triple (adadada gets "d", as (ad)^4 = 1).  The action is faithful, so
    an element is its root swap and its two sections, and the sections of a
    reduced word of length >= 2 are strictly shorter: induct on the length.
    """
    word = reduce_word(word)
    if len(word) <= 1:
        return word
    swap, section0, section1 = wreath_decompose(word)
    key = (swap, _element_key(section0), _element_key(section1))
    return _NUCLEUS.get(key, key)


def rigidity_depth(rays, letter: str) -> np.ndarray:
    """Level at which a generator's section along each ray dies, 0 if it survives.

    ``rays`` is a 2-D bool array holding one ray prefix per row; its width is
    the deepest level read.  Entry i is the letter's flip position f on row i
    (0 for a; for b, c and d one past the row's first 0, or width + 1 without
    one), plus 1 (through a) where the letter moves there; 0 past the width.
    """
    if letter not in GENERATORS:
        raise ValueError(f"rigidity_depth takes one generator letter, got {letter!r}")
    rays = np.asarray(rays)
    if rays.dtype != bool or rays.ndim != 2 or rays.shape[1] == 0:
        raise ValueError(f"rays must be a 2-D bool array with at least one level, got {rays.dtype} {rays.shape}")
    width = rays.shape[1]
    depth = np.empty(rays.shape[0], dtype=np.int32)  # the sample may hold 2^24 rows
    for start in range(0, rays.shape[0], _ROW_BLOCK):
        block = rays[start : start + _ROW_BLOCK]
        f = 0 if letter == "a" else np.where(block.all(axis=1), width, block.argmin(axis=1)) + 1
        level = f + _moves(letter, f)
        depth[start : start + _ROW_BLOCK] = np.where(level <= width, level, 0)  # else the section a outlives the row
    return depth
