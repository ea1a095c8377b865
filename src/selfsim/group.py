"""Exact arithmetic in the four-generator self-similar group on the binary tree.

The four generators act by the wreath recursions

    a = swap . (e, e),   b = (a, c),   c = (a, d),   d = (e, b),

where the pair gives the sections at the two level-1 subtrees and ``swap``
exchanges them.  Group elements are plain words over "abcd"; the empty word is
the identity and every generator is an involution, so no inverse letters are
needed.  Words compose with the rightmost letter acting first.

Every section of a generator is again a generator or the identity, so each
generator is a bounded automaton: reading a ray, it changes at most the one
coordinate after the first 0.  The tree action, on vertices and on boundary
points alike, applies the letters of a word one at a time along this walk.

Provides:
    - wreath_decompose / act_vertex: the level-1 decomposition and the vertex
      action of an arbitrary word,
    - BoundaryPoint: eventually periodic boundary sequences with an exact
      group action (boundary_image),
    - is_identity: the contracting word-problem decision procedure,
    - rigidity_depth: first level at which a generator's section dies, along
      every ray of a 0/1 array at once.

All functions are pure; values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

GENERATORS = ("a", "b", "c", "d")

# Level-1 data per generator: (root swap, section at 0, section at 1).
_GEN_DECOMP = {
    "a": (True, "", ""),
    "b": (False, "a", "c"),
    "c": (False, "a", "d"),
    "d": (False, "", "b"),
}

# The sections of _GEN_DECOMP as indices into _STATES: row = state, column =
# bit.  State 0 is the identity, whose sections are the identity.  One byte
# per entry, so a state per sampled ray costs one byte too.
_STATES = ("",) + GENERATORS
_SECTION_TABLE = np.array(
    [[0, 0]] + [[_STATES.index(s) for s in _GEN_DECOMP[g][1:]] for g in GENERATORS], dtype=np.uint8
)

# Klein four-group table for the {b, c, d} letters: any two distinct ones
# multiply to the third, in either order.
_KLEIN = {
    "bc": "d", "cb": "d",
    "bd": "c", "db": "c",
    "cd": "b", "dc": "b",
}

_FLIP = {"0": "1", "1": "0"}


def _check_word(word: str) -> None:
    for ch in word:
        if ch not in _GEN_DECOMP:
            raise ValueError(f"bad generator letter {ch!r} in word {word!r}")


_NOT_BITS = str.maketrans("", "", "01")


def _check_bits(bits: str, what: str = "vertex") -> None:
    bad = bits.translate(_NOT_BITS)  # every character but 0 and 1, in order, in one pass
    if bad:
        raise ValueError(f"bad bit {bad[0]!r} in {what} {bits!r}")


def reduce_word(word: str) -> str:
    """Free reduction using the involution and Klein-four relations.

    The rewriting system (xx -> e for every letter, xy -> z for distinct
    x, y, z in {b,c,d}) is confluent, so the result is a canonical form for
    the quotient monoid; full group identity still needs is_identity.
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


@dataclass(frozen=True)
class WreathDecomposition:
    """Level-1 view of a group element: root swap plus the two sections.

    ``swap`` False means the identity root permutation.  Sections are
    unreduced letter-by-letter concatenations, kept syntactic on purpose.
    """

    swap: bool
    section0: str
    section1: str


def _compose(left: tuple[bool, str, str], right: tuple[bool, str, str]) -> tuple[bool, str, str]:
    # left acts after right: sections pick up left's section at the subtree
    # right sends them to.
    ls, l0, l1 = left
    rs, r0, r1 = right
    if rs:
        return (ls != rs, l1 + r0, l0 + r1)
    return (ls != rs, l0 + r0, l1 + r1)


def wreath_decompose(word: str) -> WreathDecomposition:
    """Decompose the product of the letters of ``word`` at the root."""
    _check_word(word)
    acc = (False, "", "")
    for ch in word:
        acc = _compose(acc, _GEN_DECOMP[ch])
    return WreathDecomposition(*acc)


def _letter_flip(letter: str, bits: str) -> int | None:
    """Position of the one bit that the generator flips, read along its sections, or None.

    A generator's section is again a generator or dies, so the walk is one
    state per bit and stops at the first swap or dead section.
    """
    for i, bit in enumerate(bits):
        swap, s0, s1 = _GEN_DECOMP[letter]
        if swap:
            return i
        letter = s0 if bit == "0" else s1
        if not letter:
            break
    return None


def act_vertex(word: str, vertex: str) -> str:
    """Image of a vertex (bit string) under the word, rightmost letter first."""
    _check_word(word)
    _check_bits(vertex)
    for ch in reversed(word):
        i = _letter_flip(ch, vertex)
        if i is not None:
            vertex = vertex[:i] + _FLIP[vertex[i]] + vertex[i + 1 :]
    return vertex


def _minimal_period(period: str) -> str:
    # the least shift that maps a nonempty period onto itself divides its length and is its least period
    return period[: (period + period).find(period, 1)]


def _periodic_suffix(pre: str, period: str) -> int:
    """Length of the longest suffix of pre that is also a suffix of ...period period."""
    tail = period * (len(pre) // len(period) + 1)
    # read as binary numbers, the strings differ first at the lowest set bit of their xor
    diff = int(pre, 2) ^ int(tail[len(tail) - len(pre) :], 2)
    return (diff & -diff).bit_length() - 1 if diff else len(pre)


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
            k = _periodic_suffix(pre, per)
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

    def with_flip(self, i: int) -> "BoundaryPoint":
        """Copy of the point with coordinate i flipped."""
        pre_len = max(len(self.preperiod), i + 1)
        bits = self.prefix(pre_len)
        shift = (pre_len - len(self.preperiod)) % len(self.period)
        return BoundaryPoint(bits[:i] + _FLIP[bits[i]] + bits[i + 1 :], self.period[shift:] + self.period[:shift])


def boundary_image(word: str, x: BoundaryPoint) -> BoundaryPoint:
    """Exact image of an eventually periodic point under a group word.

    Applies the letters of the reduced word one at a time.  A generator
    changes at most one coordinate: a the first one, and b, c or d at most the
    one after the first 0, so nothing along an all-ones tail (b, c and d fix
    1^inf).  So the prefix of length
    len(preperiod) + len(period) + 1 of the current point decides each letter
    and the image is again eventually periodic.
    """
    for ch in reversed(reduce_word(word)):
        i = _letter_flip(ch, x.prefix(len(x.preperiod) + len(x.period) + 1))
        if i is not None:
            x = x.with_flip(i)
    return x


@lru_cache(maxsize=None)
def _is_identity_reduced(word: str) -> bool:
    if len(word) <= 1:
        return word == ""
    dec = wreath_decompose(word)
    if dec.swap:
        return False
    # reduced length >= 2 makes both sections strictly shorter after
    # reduction, so this recursion terminates
    return _is_identity_reduced(reduce_word(dec.section0)) and _is_identity_reduced(
        reduce_word(dec.section1)
    )


def is_identity(word: str) -> bool:
    """Whether the word acts trivially on the whole tree."""
    return _is_identity_reduced(reduce_word(word))


def rigidity_depth(rays, letter: str) -> np.ndarray:
    """Level at which a generator's section along each ray dies, 0 if it survives.

    ``rays`` is a 2-D 0/1 array (bool or integer) holding one ray prefix per
    row; its width is the deepest level read.  ``letter`` is one generator or
    the empty word.  All rows walk the wreath recursion together, one
    _SECTION_TABLE lookup per level as in the tree walk; entry i is the first
    level n at which the section at the first n coordinates of row i is the
    identity, or 0 if that does not happen within the row.
    """
    if letter not in _STATES:
        raise ValueError(f"rigidity_depth takes one generator letter or the empty word, got {letter!r}")
    rays = np.asarray(rays)
    if rays.ndim != 2 or rays.shape[1] == 0:
        raise ValueError(f"rays must be a 2-D array with at least one level, got shape {rays.shape}")
    if np.any((rays != 0) & (rays != 1)):
        raise ValueError("rays must hold only 0 and 1")
    # bits and states as one-byte table indices, and depths as int32: the sample may hold 2^24 rows
    index = rays.astype(np.uint8)
    state = np.full(index.shape[0], _STATES.index(letter), dtype=np.uint8)
    depth = np.zeros(index.shape[0], dtype=np.int32)
    for n, column in enumerate(index.T, start=1):
        state = _SECTION_TABLE[state, column]
        depth[(state == 0) & (depth == 0)] = n
        if not state.any():
            break
    return depth
