"""Finite-level operator matrices for group-algebra elements.

The level-n action of the generators is the block recursion

    A = [[0, I], [I, 0]],  B = diag(A, C),  C = diag(A, D),  D = diag(I, B)

read off the wreath recursions (blocks by the first coordinate) and unfolded
to group._moves, one whole-array step per generator with the level vertices
numbered by place on the orbit line (schreier).  These matrices are the
Koopman representation at the uniform Bernoulli measure (q = 1/2) compressed
to the level-n cylinder functions; at any other q a Radon-Nikodym factor
enters and they no longer describe it.  Each call that reads the level action
builds the generator permutations (exact integer index arrays) once, composes
every word on them, keeps none.

Operator assembly U(m) = sum of m(w) times the word permutation composes the
permutations exactly and converts to floating point at the final accumulation.
Level, groupoid and orbital operators alike are coefficients times partial
permutations given as index maps, which one builder adds, term by term, into
an OperatorMatrix: band storage along the orbit line, which the Schreier graphs
are, so its width is that of the longest word; no assembler forms a dense
array.  An orbital term's map composes the per-letter image tables of a
stretch of the orbit line (schreier), the same way a level term composes the
generator permutations, in the one loop _word_map, once per term; no point is
parsed or acted on, and the orbital row flags are read off the same maps.
schur_step_check multiplies such sums of terms by composing their maps, so
band storage and index maps are the only operator forms here.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .group import GENERATORS, _element_key, _moves, reduce_word
from .renorm import renorm_map
from .schreier import _line_tables

LEVEL_GUARD = 20
ASSEMBLY_GUARD = 13  # level operators stay within seconds of solve time
# element files, checked before any word is reduced: every term is keyed, and letters lengthen the line
TERM_GUARD = 256
WORD_GUARD = 16  # letters of one word, and so the widest band along the line
BYTE_GUARD = 1 << 20  # bytes of an element file, read no further: JSON numbers and whitespace have no length limit


def _check_level(n: int, guard: int) -> None:
    if n < 0:
        raise ValueError("level must be >= 0")
    if n > guard:
        raise ValueError(f"level {n} exceeds the guard {guard}")


def _level_perms(n: int) -> dict[str, np.ndarray]:
    """Permutation index arrays of a, b, c, d on the 2^n level vertices, numbered by place on the orbit line.

    Place p holds vertex NOT gray(2^n - 1 - p) (schreier).  Step s joins
    places s - 1 and s and flips coordinate f = v2(s); with moves = _moves(g,
    f), none at s = 0 or 2^n, perm[p] = p + moves[p + 1] - moves[p].
    """
    _check_level(n, LEVEL_GUARD)
    f = np.full((1 << n) + 1, -1, dtype=np.int8)  # -1 at s = 0 and 2^n: no letter moves at -1
    for k in range(n):
        f[1 << k :: 2 << k] = k
    return {g: np.arange(1 << n, dtype=np.int64) + np.diff(_moves(g, f).view(np.int8)) for g in GENERATORS}


def _word_map(tables, word: str, size: int) -> np.ndarray:
    """Index map of the word on size indices, composed from per-letter tables, rightmost letter first."""
    image = np.arange(size, dtype=np.int64)
    for ch in reversed(word):
        if ch not in tables:
            raise ValueError(f"bad generator letter {ch!r} in word {word!r}")
        outside = image < 0  # -1, outside the tables, stays -1: a read there would give the last entry
        image = np.take(tables[ch], image)
        image[outside] = -1
    return image


@dataclass(frozen=True)
class AlgebraElement:
    """Finitely supported real coefficient map on group words.

    Terms are keyed by reduced words; construction merges words that define
    the same group element (the same group._element_key) and drops zero
    coefficients, so the support is duplicate-free.
    """

    terms: tuple[tuple[str, float], ...]

    @staticmethod
    def from_terms(items) -> "AlgebraElement":
        merged = {}  # element key -> (first reduced word, coefficient summed in input order)
        for word, coef in items:
            word = reduce_word(word)
            key = _element_key(word)
            first, total = merged.get(key, (word, 0.0))
            merged[key] = (first, total + float(coef))
        kept = tuple(sorted((w, c) for w, c in merged.values() if c != 0.0))
        return AlgebraElement(kept)

    @staticmethod
    def from_json(text: str) -> "AlgebraElement":
        """Parse {"terms": [{"word": str, "coef": number}, ...]}; ValueError if malformed or past a size guard."""
        try:
            data = json.loads(text)
        except RecursionError:  # arrays or objects nested past the interpreter's recursion limit
            raise ValueError("element JSON is nested too deeply") from None
        terms = data.get("terms") if isinstance(data, dict) else None
        if not isinstance(terms, list):
            raise ValueError('element JSON needs a "terms" list')
        for t in terms:
            # NaN fails the comparison, an int compares exactly (no float overflow), and the exact type turns away bools
            if not (isinstance(t, dict) and isinstance(t.get("word"), str) and type(t.get("coef")) in (int, float)
                    and abs(t["coef"]) <= sys.float_info.max):
                raise ValueError(f'element term {t!r} needs a string "word" and a finite number "coef"')
        if len(terms) > TERM_GUARD:
            raise ValueError(f"element has {len(terms)} terms, more than the guard {TERM_GUARD}")
        letters = max((len(t["word"]) for t in terms), default=0)
        if letters > WORD_GUARD:
            raise ValueError(f"element word has {letters} letters, more than the guard {WORD_GUARD}")
        return AlgebraElement.from_terms((t["word"], t["coef"]) for t in terms)

    def support_letters(self) -> set[str]:
        return {ch for w, _ in self.terms for ch in w}


def delta_element() -> AlgebraElement:
    """One quarter of the generator sum."""
    return AlgebraElement.from_terms([("a", 0.25), ("b", 0.25), ("c", 0.25), ("d", 0.25)])


def generator_sum_element() -> AlgebraElement:
    return AlgebraElement.from_terms([("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0)])


@dataclass(frozen=True)
class OperatorMatrix:
    """Real dim x dim operator as band storage along its line.

    line lists the indices (level places or breadth-first numbers) by
    descending line coordinate (schreier), so place p holds index line[p] and
    dim is its size; along it an assembled operator is a band as wide as its
    longest word.  entries has 2w + 1 rows, w the width of the outermost nonzero
    diagonal, and entries[w + k, p] is the entry at row place p + k and
    column place p; the corner cells that fall outside the matrix hold 0.
    """

    entries: np.ndarray
    line: np.ndarray

    @property
    def dim(self) -> int:
        return self.line.size


def _along_line(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, line: np.ndarray) -> OperatorMatrix:
    """Sum of values[k] at row place rows[k] and column place cols[k], as band storage along line.

    np.add.at adds left to right from zero, so each entry is bit for bit the
    dense array accumulated with += in input order; the band is then cut to
    its outermost nonzero diagonal.
    """
    offsets = rows - cols
    w = int(np.abs(offsets).max(initial=0))
    entries = np.zeros((2 * w + 1, line.size))
    np.add.at(entries, (offsets + w, cols), values)
    k = int(np.abs(np.flatnonzero(entries.any(axis=1)) - w).max(initial=0))
    return OperatorMatrix(entries[w - k : w + k + 1], line)


def _operator(m: AlgebraElement, maps, line: np.ndarray) -> OperatorMatrix:
    """Sum of c times the partial permutation maps[k] over the k-th term (w, c) of m, along line.

    Column j of term k goes to row maps[k][j], and -1 drops the entry.  The
    entries go in term by term, so a cell shared by several terms sums them
    in term order.
    """
    dim = line.size
    place = np.empty(dim, dtype=np.int64)
    place[line] = np.arange(dim)
    rows = np.array(maps, dtype=np.int64).reshape(-1, dim)[:, line]  # the row index of each column place
    keep = rows >= 0
    cols = np.broadcast_to(np.arange(dim), rows.shape)[keep]
    values = np.broadcast_to(np.array([coef for _, coef in m.terms])[:, None], rows.shape)[keep]
    return _along_line(place[rows[keep]], cols, values, line)


def assemble_level(m: AlgebraElement, n: int) -> OperatorMatrix:
    """Level-n matrix of U(m): coefficients against exact word permutations."""
    _check_level(n, ASSEMBLY_GUARD)
    perms = _level_perms(n)
    return _operator(m, [_word_map(perms, word, 1 << n) for word, _ in m.terms], np.arange(1 << n))


def assemble_orbital(m: AlgebraElement, x, gens, radius: int) -> tuple[OperatorMatrix, np.ndarray]:
    """Compression of the orbit representation of m to orbital_ball(x, gens, radius), with row flags.

    Each term composes the image tables it reads of the ball L - 1 steps
    larger, L the longest word of m, and is cut at its prefix, the radius
    ball numbered alike.  A letter moves a point at most one step, so the
    word's intermediate images stay in the larger ball and its map is exact.
    Row i is flagged when the operator there depends on points outside the
    ball: some term's inverse, its reversal, maps vertex i outside.  A term's
    map is one-to-one, so that is when no vertex maps to i under the term.
    """
    missing = m.support_letters() - set(gens)
    if missing:
        raise ValueError(f"letters {sorted(missing)} not covered by the ball labels")
    if radius < 0:  # checked before the ball is extended
        raise ValueError("radius must be >= 0")
    images, offsets, _ = _line_tables(x, gens, radius + max([0] + [len(word) - 1 for word, _ in m.terms]))
    dim = int(np.count_nonzero(np.abs(offsets) <= radius))
    maps = np.array([_word_map(images, word, dim) for word, _ in m.terms], dtype=np.int64).reshape(-1, dim)
    maps[maps >= dim] = -1  # only the last letter can leave the larger ball (-1)
    flags = np.bincount(maps[maps >= 0], minlength=dim) < len(maps)
    return _operator(m, maps, np.argsort(-offsets[:dim])), flags


def groupoid_block(m: AlgebraElement, n: int) -> OperatorMatrix:
    """Block-diagonal doubling of the level-n matrix, as the orbit-pair form, along two copies of the level line."""
    M = assemble_level(m, n)
    return OperatorMatrix(np.hstack([M.entries, M.entries]), np.concatenate([M.line, M.line + M.dim]))


def _pencil(alpha: float, beta: float) -> AlgebraElement:
    """The two-parameter element -alpha a + b + c + d - (beta+1) e."""
    return AlgebraElement.from_terms([("a", -alpha), ("b", 1.0), ("c", 1.0), ("d", 1.0), ("", -(beta + 1.0))])


def schur_step_check(alpha: float, beta: float, n: int) -> float:
    """Largest entry of the residual of the one-step block reduction of the two-parameter operator.

    Multiplying the level-n matrix by the unitriangular corrector must produce
    a lower block triangle with diagonal blocks 2A - beta I (level n-1) and
    the level-(n-1) operator at the renormalized parameters.  Each matrix is
    coefficients times partial index maps on the level permutations, as
    _operator takes them; the product composes the maps term by term, and
    the terms of the product less the triangle are summed cell by cell.
    """
    if beta == 2.0 or beta == -2.0:
        raise ValueError("corrector undefined at beta = +-2")
    if n < 1:
        raise ValueError("need n >= 1 to step down one level")
    _check_level(n, ASSEMBLY_GUARD)
    dim, half, k = 1 << n, 1 << (n - 1), alpha / (4.0 - beta * beta)
    perms, low, eye = _level_perms(n), _level_perms(n - 1), np.arange(half)
    side = (2 * eye + 1 - (eye & 1), 2 * eye + (eye & 1))  # over place q, first coordinate 0 (bits 0, 1 differ), 1

    def block(image, top, left):  # a level-(n-1) map as the block at first coordinates top and left, -1 elsewhere
        full = np.full(dim, -1)
        full[side[left]] = side[top][image]
        return full

    pencil = [(c, _word_map(perms, word, dim)) for word, c in _pencil(alpha, beta).terms]
    corrector = [(1.0, np.arange(dim)), (2.0 * k, block(low["a"], 0, 1)), (beta * k, block(eye, 0, 1))]
    terms = [(p * q, np.where(right >= 0, left[right], -1)) for p, left in pencil for q, right in corrector]
    terms += [(-2.0, block(low["a"], 0, 0)), (beta, block(eye, 0, 0)), (alpha, block(eye, 1, 0))]
    terms += [(-c, block(_word_map(low, word, half), 1, 1))
              for word, c in _pencil(*renorm_map((alpha, beta))).terms]
    maps, coefs = np.array([image for _, image in terms]), np.array([c for c, _ in terms])
    keep = maps >= 0
    _, cell = np.unique((maps * dim + np.arange(dim))[keep], return_inverse=True)  # row * dim + column
    return float(np.abs(np.bincount(cell, weights=np.broadcast_to(coefs[:, None], maps.shape)[keep])).max(initial=0.0))
