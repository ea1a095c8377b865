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
    - activity_count / is_subexp_bounded_sample: section-activity statistics,
    - rigidity_depth: first level at which a section along a ray dies.

All functions are pure; values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

GENERATORS = ("a", "b", "c", "d")

# Level-1 data per generator: (root swap, section at 0, section at 1).
_GEN_DECOMP = {
    "a": (True, "", ""),
    "b": (False, "a", "c"),
    "c": (False, "a", "d"),
    "d": (False, "", "b"),
}

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


def _check_bits(bits: str, what: str = "vertex") -> None:
    for ch in bits:
        if ch not in ("0", "1"):
            raise ValueError(f"bad bit {ch!r} in {what} {bits!r}")


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

    @property
    def sections(self) -> tuple[str, str]:
        return (self.section0, self.section1)


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


def _letter_flips(letter: str, bits: str) -> list[int]:
    """Positions of bits that the generator flips, read along its sections.

    A generator's section is again a generator or dies, so the walk is one
    state per bit and stops at the first swap or dead section.
    """
    for i, bit in enumerate(bits):
        swap, s0, s1 = _GEN_DECOMP[letter]
        if swap:
            return [i]
        letter = s0 if bit == "0" else s1
        if not letter:
            break
    return []


def act_vertex(word: str, vertex: str) -> str:
    """Image of a vertex (bit string) under the word, rightmost letter first."""
    _check_word(word)
    _check_bits(vertex)
    for ch in reversed(word):
        for i in _letter_flips(ch, vertex):
            vertex = vertex[:i] + _FLIP[vertex[i]] + vertex[i + 1 :]
    return vertex


def _minimal_period(period: str) -> str:
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period == period[:d] * (n // d):
            return period[:d]
    return period


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
        while pre and pre[-1] == per[-1]:
            per = per[-1] + per[:-1]
            pre = pre[:-1]
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

    def bit_at(self, i: int) -> str:
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def prefix(self, n: int) -> str:
        if n < 0:
            raise ValueError("prefix length must be >= 0")
        if n <= len(self.preperiod):
            return self.preperiod[:n]
        k = n - len(self.preperiod)
        reps = k // len(self.period) + 1
        return (self.preperiod + self.period * reps)[:n]

    def with_flips(self, positions) -> "BoundaryPoint":
        """Copy of the point with the given coordinate positions flipped."""
        if not positions:
            return self
        top = max(positions) + 1
        pre_len = max(len(self.preperiod), top)
        bits = list(self.prefix(pre_len))
        for p in positions:
            bits[p] = _FLIP[bits[p]]
        shift = (pre_len - len(self.preperiod)) % len(self.period)
        per = self.period[shift:] + self.period[:shift]
        return BoundaryPoint("".join(bits), per)


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
        x = x.with_flips(_letter_flips(ch, x.prefix(len(x.preperiod) + len(x.period) + 1)))
    return x


def act_boundary_prefix(word: str, x: BoundaryPoint, n: int) -> str:
    """First n coordinates of the image of x; equals act_vertex on prefix(x, n)."""
    if n < 0:
        raise ValueError("depth must be >= 0")
    return act_vertex(word, x.prefix(n))


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


@lru_cache(maxsize=None)
def _activity_reduced(word: str, n: int) -> int:
    if n == 0:
        return 0 if _is_identity_reduced(word) else 1
    dec = wreath_decompose(word)
    return _activity_reduced(reduce_word(dec.section0), n - 1) + _activity_reduced(
        reduce_word(dec.section1), n - 1
    )


def activity_count(word: str, n: int) -> int:
    """Number of nontrivial sections of the word at tree level n."""
    if n < 0:
        raise ValueError("level must be >= 0")
    return _activity_reduced(reduce_word(word), n)


def is_subexp_bounded_sample(word: str, gamma: float, max_level: int) -> tuple[bool, list[float]]:
    """Finite-sample evidence that activity decays against gamma^n.

    Returns the verdict together with the trace k_n(word) * gamma^n for
    n = 0..max_level.  The verdict compares the late half of the trace with
    the early half; it is evidence, not a proof, and is documented as such.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    trace = [activity_count(word, n) * gamma**n for n in range(max_level + 1)]
    half = max_level // 2
    early = max(trace[: half + 1])
    late = max(trace[half + 1 :])
    ok = late == 0.0 or late < early
    return ok, trace


def rigidity_depth(x: BoundaryPoint, word: str, max_depth: int) -> int | None:
    """Least level n <= max_depth at which the section along x dies.

    Returns the depth where the section of the word at the vertex
    prefix(x, n) is the identity, or None if that does not happen within
    max_depth levels.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    section = reduce_word(word)
    for n in range(1, max_depth + 1):
        dec = wreath_decompose(section)
        section = reduce_word(dec.section0 if x.bit_at(n - 1) == "0" else dec.section1)
        if _is_identity_reduced(section):
            return n
    return None
