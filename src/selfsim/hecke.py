"""Finite-level operator matrices for group-algebra elements.

The level-n action of the generators is produced by unfolding the block
recursion

    A = [[0, I], [I, 0]],  B = diag(A, C),  C = diag(A, D),  D = diag(I, B)

down to a scalar base, read off the generators' wreath recursions.  The
recursion carries no measure parameter: the same matrices serve every
Bernoulli weighting of the boundary at finite level.
Internally each generator is held as a permutation index array (exact integer
data).

Operator assembly U(m) = sum of m(w) times the word permutation composes the
permutations exactly and converts to floating point at the final accumulation.
Every operator is an OperatorMatrix of coordinate triplets (about one nonzero
per term and row, since the Schreier graphs are lines); no assembler forms a
dense array.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import LevelTooLarge, MissingLabel, PoleAtBeta
from .group import _GEN_DECOMP, BoundaryPoint, boundary_image, is_identity, reduce_word
from .renorm import renorm_map
from .schreier import MarkedGraph

LEVEL_GUARD = 20
ASSEMBLY_GUARD = 13  # level operators stay within seconds of solve time


def _check_level(n: int, guard: int) -> None:
    if n < 0:
        raise ValueError("level must be >= 0")
    if n > guard:
        raise LevelTooLarge(f"level {n} exceeds the guard {guard}")


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
            if not (isinstance(t, dict) and isinstance(t.get("word"), str) and isinstance(t.get("coef"), (int, float))):
                raise ValueError(f'element term {t!r} needs a string "word" and a number "coef"')
        return AlgebraElement.from_terms((t["word"], t["coef"]) for t in terms)

    def to_json(self) -> str:
        return json.dumps(
            {"terms": [{"word": w, "coef": c} for w, c in self.terms]}, sort_keys=True
        )

    def coefficient(self, word: str) -> float:
        word = reduce_word(word)
        for w, c in self.terms:
            if is_identity(word + w[::-1]):
                return c
        return 0.0

    def support_letters(self) -> set[str]:
        return {ch for w, _ in self.terms for ch in w}

    def is_self_adjoint(self) -> bool:
        return all(self.coefficient(w[::-1]) == c for w, c in self.terms)


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
    level: int | None = None

    @staticmethod
    def from_triplets(rows, cols, values, dim: int, level: int | None = None) -> "OperatorMatrix":
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
        return OperatorMatrix(rows[first][keep], cols[first][keep], sums[keep], dim, level)

    def csr(self):
        """The operator as a scipy CSR matrix."""
        from scipy import sparse

        return sparse.csr_matrix((self.entries, (self.rows, self.cols)), shape=(self.dim, self.dim))


def assemble_level(m: AlgebraElement, n: int) -> OperatorMatrix:
    """Level-n matrix of U(m): coefficients against exact word permutations."""
    _check_level(n, ASSEMBLY_GUARD)
    dim = 1 << n
    rows = np.array([word_perm(word, n) for word, _ in m.terms], dtype=np.int64).reshape(-1)
    cols = np.tile(np.arange(dim), len(m.terms))
    values = np.repeat([coef for _, coef in m.terms], dim)
    return OperatorMatrix.from_triplets(rows, cols, values, dim, level=n)


def assemble_orbital(m: AlgebraElement, ball: MarkedGraph) -> tuple[OperatorMatrix, np.ndarray]:
    """Compression of the orbit representation of m to a ball, with row flags.

    Vertex identifiers of the ball must parse as boundary points; images are
    computed by the exact boundary action, so multi-letter words are not
    truncated at intermediate steps.  Row i is flagged when the value of the
    operator there depends on points outside the ball.
    """
    missing = m.support_letters() - set("".join(ball.labels))
    if missing:
        raise MissingLabel(f"letters {sorted(missing)} not covered by the ball labels")
    points = [BoundaryPoint.parse(v) for v in ball.vertices]
    index = {y: i for i, y in enumerate(points)}
    dim = len(points)
    rows, cols, values = [], [], []
    flags = np.zeros(dim, dtype=bool)
    for j, y in enumerate(points):
        for word, coef in m.terms:
            image = boundary_image(word, y)
            i = index.get(image)
            if i is not None:
                rows.append(i)
                cols.append(j)
                values.append(coef)
            # inverse image outside the ball truncates row j (palindromes are self-inverse)
            inverse = image if word == word[::-1] else boundary_image(word[::-1], y)
            if inverse not in index:
                flags[j] = True
    return OperatorMatrix.from_triplets(rows, cols, values, dim), flags


def groupoid_block(m: AlgebraElement, n: int) -> OperatorMatrix:
    """Block-diagonal doubling of the level-n matrix, as the orbit-pair form."""
    inner = assemble_level(m, n)
    dim = inner.dim
    return OperatorMatrix.from_triplets(
        np.concatenate([inner.rows, inner.rows + dim]),
        np.concatenate([inner.cols, inner.cols + dim]),
        np.concatenate([inner.entries, inner.entries]),
        2 * dim,
    )


def _pencil(alpha: float, beta: float) -> AlgebraElement:
    """The two-parameter element -alpha a + b + c + d - (beta+1) e."""
    return AlgebraElement.from_terms([("a", -alpha), ("b", 1.0), ("c", 1.0), ("d", 1.0), ("", -(beta + 1.0))])


@dataclass(frozen=True)
class SchurReport:
    max_residual: float
    block_residuals: dict
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_residual <= self.tol


def schur_step_check(alpha: float, beta: float, n: int, tol: float) -> SchurReport:
    """Verify the one-step block reduction of the two-parameter operator.

    Multiplying the level-n matrix by the unitriangular corrector must produce
    a lower block triangle with diagonal blocks 2A - beta I (level n-1) and
    the level-(n-1) operator at the renormalized parameters.
    """
    if beta == 2.0 or beta == -2.0:
        raise PoleAtBeta("corrector undefined at beta = +-2")
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
    blocks = {
        "top_left": product[:half, :half] - expected_tl,
        "top_right": product[:half, half:],
        "bottom_left": product[half:, :half] + alpha * eye,
        "bottom_right": product[half:, half:] - expected_br,
    }
    residuals = {name: float(abs(block).max()) for name, block in blocks.items()}
    return SchurReport(max(residuals.values()), residuals, tol)
