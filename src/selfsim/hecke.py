"""Finite-level operator matrices for group-algebra elements.

The level-n action of the generators is produced by unfolding the block
recursion

    A = [[0, I], [I, 0]],  B = diag(A, C),  C = diag(A, D),  D = diag(I, B)

down to a scalar base, read off the generators' wreath recursions.  These
matrices are the Koopman representation at the uniform Bernoulli measure
(q = 1/2) compressed to the level-n cylinder functions; at any other q a
Radon-Nikodym factor enters and they no longer describe it.
Internally each generator is held as a permutation index array (exact integer
data).

Operator assembly U(m) = sum of m(w) times the word permutation composes the
permutations exactly and converts to floating point at the final accumulation.
Level, groupoid and orbital operators alike are coefficients times partial
permutations given as index maps (an orbital ball's image tables), which one
builder turns into an OperatorMatrix of coordinate triplets (about one nonzero
per term and row, since the Schreier graphs are lines); no assembler forms a
dense array.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .group import _GEN_DECOMP, boundary_image, is_identity, reduce_word
from .renorm import renorm_map
from .schreier import MarkedGraph

LEVEL_GUARD = 20
ASSEMBLY_GUARD = 13  # level operators stay within seconds of solve time


def _check_level(n: int, guard: int) -> None:
    if n < 0:
        raise ValueError("level must be >= 0")
    if n > guard:
        raise ValueError(f"level {n} exceeds the guard {guard}")


@lru_cache(maxsize=None)
def _level_perms(n: int) -> dict[str, np.ndarray]:
    """Permutation index arrays of a, b, c, d on the 2^n level vertices.

    Index j encodes the vertex whose bit string is j written MSB-first, so the
    first tree coordinate is the high-order bit and block structure matches
    the operator recursion.  perm[j] is the image index.
    """
    _check_level(n, LEVEL_GUARD)
    out = {g: np.zeros(1, dtype=np.int64) for g in _GEN_DECOMP}
    for k in range(1, n + 1):
        half = 1 << (k - 1)
        p = {"": np.arange(half, dtype=np.int64), **out}
        # the swapping generator exchanges the halves; the others act on each half by a section
        out = {
            g: np.concatenate([p[s0] + half, p[s1]] if swap else [p[s0], p[s1] + half])
            for g, (swap, s0, s1) in _GEN_DECOMP.items()
        }
    for arr in out.values():
        arr.setflags(write=False)
    return out


def word_perm(word: str, n: int) -> np.ndarray:
    """Permutation array of an arbitrary word at level n, rightmost letter first."""
    perms = _level_perms(n)
    acc = np.arange(1 << n, dtype=np.int64)
    for ch in reversed(word):
        try:
            acc = perms[ch][acc]
        except KeyError:
            raise ValueError(f"bad generator letter {ch!r} in word {word!r}") from None
    return acc


@dataclass(frozen=True)
class AlgebraElement:
    """Finitely supported real coefficient map on group words.

    Terms are keyed by reduced words; construction merges words that define
    the same group element (decided by the word problem) and drops zero
    coefficients, so the support is duplicate-free.
    """

    terms: tuple[tuple[str, float], ...]

    @staticmethod
    def from_terms(items) -> "AlgebraElement":
        merged: list[tuple[str, float]] = []
        for word, coef in items:
            word = reduce_word(word)
            for i, (w, c) in enumerate(merged):
                # involutive letters make the inverse of a word its reversal
                if is_identity(word + w[::-1]):
                    merged[i] = (w, c + float(coef))
                    break
            else:
                merged.append((word, float(coef)))
        kept = tuple(sorted((w, c) for w, c in merged if c != 0.0))
        return AlgebraElement(kept)

    @staticmethod
    def from_json(text: str) -> "AlgebraElement":
        """Parse {"terms": [{"word": str, "coef": number}, ...]}; ValueError if malformed."""
        data = json.loads(text)
        terms = data.get("terms") if isinstance(data, dict) else None
        if not isinstance(terms, list):
            raise ValueError('element JSON needs a "terms" list')
        for t in terms:
            # NaN fails the comparison, and an int compares exactly, so no float overflow is possible
            if not (isinstance(t, dict) and isinstance(t.get("word"), str) and isinstance(t.get("coef"), (int, float))
                    and abs(t["coef"]) <= sys.float_info.max):
                raise ValueError(f'element term {t!r} needs a string "word" and a finite number "coef"')
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
    """Real dim x dim operator as its nonzeros: entries[k] sits at (rows[k], cols[k]).

    Build it with from_triplets, which puts the triplets in canonical form;
    csr() is the only way to a matrix.
    """

    rows: np.ndarray
    cols: np.ndarray
    entries: np.ndarray
    dim: int

    @staticmethod
    def from_triplets(rows, cols, values, dim: int) -> "OperatorMatrix":
        """Canonical form: sorted by (row, col), duplicates summed, zeros dropped.

        The sort is stable and duplicates are summed left to right from zero
        (np.add.at, not the pairwise np.add.reduceat), so each entry is bit
        for bit the dense array accumulated with += in input order.
        """
        order = np.lexsort((cols, rows))
        rows = np.asarray(rows, dtype=np.int64)[order]
        cols = np.asarray(cols, dtype=np.int64)[order]
        first = np.ones(rows.size, dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        sums = np.zeros(np.count_nonzero(first))
        np.add.at(sums, np.cumsum(first) - 1, np.asarray(values, dtype=float)[order])
        keep = sums != 0.0
        return OperatorMatrix(rows[first][keep], cols[first][keep], sums[keep], dim)

    def csr(self):
        """The operator as a scipy CSR matrix."""
        from scipy import sparse

        return sparse.csr_matrix((self.entries, (self.rows, self.cols)), shape=(self.dim, self.dim))


def _triplets(m: AlgebraElement, maps, dim: int) -> OperatorMatrix:
    """Sum of c times the partial permutation maps[k] over the k-th term (w, c) of m.

    Column j of term k goes to row maps[k][j], and -1 drops the entry.  The
    triplets go in term by term, so from_triplets sums a duplicate position
    in term order.
    """
    rows = np.array(maps, dtype=np.int64).reshape(-1)
    cols = np.tile(np.arange(dim), len(maps))
    values = np.repeat([coef for _, coef in m.terms], dim)
    keep = rows >= 0
    return OperatorMatrix.from_triplets(rows[keep], cols[keep], values[keep], dim)


def assemble_level(m: AlgebraElement, n: int) -> OperatorMatrix:
    """Level-n matrix of U(m): coefficients against exact word permutations."""
    _check_level(n, ASSEMBLY_GUARD)
    return _triplets(m, [word_perm(word, n) for word, _ in m.terms], 1 << n)


def assemble_orbital(m: AlgebraElement, ball: MarkedGraph) -> tuple[OperatorMatrix, np.ndarray]:
    """Compression of the orbit representation of m to a ball, with row flags.

    The identity maps every vertex to itself, and a one-letter term reads its
    index map from the ball's image table, which is its own inverse.  A word
    of two or more letters maps each point by the exact boundary action, so
    it is not truncated at intermediate steps; its inverse is its reversal.
    Row i is flagged when the value of the operator there depends on points
    outside the ball: some term's inverse maps vertex i outside.
    """
    missing = m.support_letters() - set(ball.labels)
    if missing:
        raise ValueError(f"letters {sorted(missing)} not covered by the ball labels")
    dim = len(ball.vertices)
    # parsed and hashed only for words of two or more letters
    index = {y: i for i, y in enumerate(ball.points)} if any(len(w) > 1 for w, _ in m.terms) else {}

    def point_map(word: str) -> np.ndarray:
        return np.array([index.get(boundary_image(word, y), -1) for y in ball.points], dtype=np.int64)

    maps = []
    flags = np.zeros(dim, dtype=bool)
    for word, _ in m.terms:
        if not word:
            image = inverse = np.arange(dim, dtype=np.int64)
        elif len(word) == 1:
            image = inverse = ball.images[word]
        else:
            image = point_map(word)
            # palindromes are self-inverse
            inverse = image if word == word[::-1] else point_map(word[::-1])
        maps.append(image)
        flags |= inverse < 0
    return _triplets(m, maps, dim), flags


def groupoid_block(m: AlgebraElement, n: int) -> OperatorMatrix:
    """Block-diagonal doubling of the level-n matrix, as the orbit-pair form."""
    _check_level(n, ASSEMBLY_GUARD)
    dim = 1 << n
    maps = [np.concatenate([p, p + dim]) for p in (word_perm(word, n) for word, _ in m.terms)]
    return _triplets(m, maps, 2 * dim)


def _pencil(alpha: float, beta: float) -> AlgebraElement:
    """The two-parameter element -alpha a + b + c + d - (beta+1) e."""
    return AlgebraElement.from_terms([("a", -alpha), ("b", 1.0), ("c", 1.0), ("d", 1.0), ("", -(beta + 1.0))])


def schur_step_check(alpha: float, beta: float, n: int) -> float:
    """Largest entry of the residual of the one-step block reduction of the two-parameter operator.

    Multiplying the level-n matrix by the unitriangular corrector must produce
    a lower block triangle with diagonal blocks 2A - beta I (level n-1) and
    the level-(n-1) operator at the renormalized parameters; the four blocks
    of the product minus that triangle are measured.
    """
    if beta == 2.0 or beta == -2.0:
        raise ValueError("corrector undefined at beta = +-2")
    if n < 1:
        raise ValueError("need n >= 1 to step down one level")
    from scipy import sparse

    half = 1 << (n - 1)
    q_n = assemble_level(_pencil(alpha, beta), n).csr()
    a_prev = assemble_level(AlgebraElement.from_terms([("a", 1.0)]), n - 1).csr()
    eye = sparse.identity(half, format="csr")
    corrector = sparse.bmat(
        [[eye, alpha * (2.0 * a_prev + beta * eye) / (4.0 - beta * beta)], [None, eye]], format="csr"
    )
    product = q_n @ corrector
    expected_tl = 2.0 * a_prev - beta * eye
    expected_br = assemble_level(_pencil(*renorm_map((alpha, beta))), n - 1).csr()
    blocks = (
        product[:half, :half] - expected_tl,
        product[:half, half:],
        product[half:, :half] + alpha * eye,
        product[half:, half:] - expected_br,
    )
    return max(float(abs(block).max()) for block in blocks)
