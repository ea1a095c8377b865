"""Deterministic property suites shared by module tests and acceptance.

Each suite function raises AssertionError on failure and returns a short
summary string on success, so callers can assert and report uniformly.
"""

import math

import numpy as np
from scipy import sparse
from scipy.stats import qmc

from selfsim import group
from selfsim.group import (
    GENERATORS,
    BoundaryPoint,
    boundary_image,
    reduce_word,
    wreath_decompose,
)
from selfsim.hecke import OperatorMatrix, _along_line, _level_perms, _word_map
from selfsim.renorm import renorm_map
from selfsim.schreier import MarkedGraph, orbital_ball
from selfsim.spectra import sym_eigs

LETTERS = "abcd"


def given_order(A) -> OperatorMatrix:
    """A dense array or scipy matrix as band storage in its given order: along the line 0, 1, ..., n - 1."""
    S = sparse.coo_matrix(A, dtype=float)
    if S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    return _along_line(S.row, S.col, S.data, np.arange(S.shape[0]))


def word_perm(word, n):
    """Permutation array of a word at level n, rightmost letter first; builds the level's table on every call."""
    return _word_map(_level_perms(n), word, 1 << n)


def _all_words_with_perms(n):
    """Depth-first stream of every word of length <= 8 with its level-n permutation.

    The permutation is grown one composed letter at a time, so the whole
    4^0 + ... + 4^8 enumeration costs one fancy-index per word.
    """
    base = _level_perms(n)
    identity = np.arange(1 << n)

    def walk(word, perm, budget):
        yield word, perm
        if budget:
            for ch in LETTERS:
                yield from walk(word + ch, perm[base[ch]], budget - 1)

    yield from walk("", identity, 8)


_GEN_DECOMP = {"a": (True, "", ""), "b": (False, "a", "c"), "c": (False, "a", "d"), "d": (False, "", "b")}


def _compose(left, right):
    # left acts after right: sections pick up left's section at the subtree
    # right sends them to.
    ls, l0, l1 = left
    rs, r0, r1 = right
    if rs:
        return (ls != rs, l1 + r0, l0 + r1)
    return (ls != rs, l0 + r0, l1 + r1)


def fold_decompose(word):
    """Reference level-1 decomposition: (swap, section0, section1) by a left fold of whole sections."""
    acc = (False, "", "")
    for ch in word:
        acc = _compose(acc, _GEN_DECOMP[ch])
    return acc


def is_identity(word: str) -> bool:
    """Whether the word acts trivially on the whole tree.

    The root swap, the parity of the a letters, which reduction keeps, says no before any section is keyed.
    """
    return not wreath_decompose(word)[0] and group._element_key(word) == ""


def reference_is_identity(word):
    """Reference word problem: the identity has no root swap and trivial sections, down to words of one letter."""
    word = reduce_word(word)
    if len(word) <= 1:
        return word == ""
    swap, section0, section1 = wreath_decompose(word)
    # reduced length >= 2 makes both sections strictly shorter, so this recursion terminates
    return not swap and reference_is_identity(section0) and reference_is_identity(section1)


def _perm_from_decomposition(word, n, cache):
    """Level-n permutation rebuilt from the level-1 wreath decomposition."""
    word = reduce_word(word)
    key = (word, n)
    if key not in cache:
        if n == 0:
            res = np.zeros(1, dtype=np.int64)
        else:
            swap, section0, section1 = wreath_decompose(word)
            half = 1 << (n - 1)
            p0 = _perm_from_decomposition(section0, n - 1, cache)
            p1 = _perm_from_decomposition(section1, n - 1, cache)
            res = np.empty(1 << n, dtype=np.int64)
            # the section acting below is selected by the input bit, the
            # output bit is the root permutation applied to it
            if swap:
                res[:half] = half + p0
                res[half:] = p1
            else:
                res[:half] = p0
                res[half:] = half + p1
        cache[key] = res
    return cache[key]


def _act_via_decomposition(word, v):
    if not v:
        return v
    swap, section0, section1 = wreath_decompose(word)
    section = section0 if v[0] == "0" else section1
    head = v[0]
    if swap:
        head = "1" if head == "0" else "0"
    return head + _act_via_decomposition(section, v[1:])


def suite_decomposition():
    """Wreath decomposition reproduces the action of every word of length <= 8.

    Exhaustively at level 6 through permutation arrays, and, on a fixed word
    sample, vertex by vertex on every level <= 6 against the rows of the
    level-6 permutation that the generator permutations compose: vertex v of length l
    is row int(v, 2) << (6 - l), and its image is that row's value >> (6 - l).
    """
    cache = {}
    count = 0
    sampled = 0
    vertices = [(lvl, i) for lvl in range(7) for i in range(1 << lvl)]
    for word, perm in _all_words_with_perms(6):
        rebuilt = _perm_from_decomposition(word, 6, cache)
        assert np.array_equal(perm, rebuilt), f"decomposition mismatch for {word!r}"
        if count % 441 == 0 or len(word) <= 2:
            for lvl, i in vertices:
                image = int(perm[i << (6 - lvl)]) >> (6 - lvl)
                # format gives "0" at width 0, so the slice keeps level 0 the empty vertex
                v, expected = (format(j, f"0{lvl}b")[:lvl] for j in (i, image))
                assert _act_via_decomposition(word, v) == expected, (word, v)
            sampled += 1
        count += 1
    return f"{count} words at level 6, {sampled} cross-checked on all vertices of level <= 6"


def tree_count(weights, lam, n):
    """Eigenvalues strictly below lam of the level-n operator alpha a + beta b + gamma c + delta d, by tree recursion.

    In blocks by the first coordinate (b = (a, c), c = (a, d), d = (1, b)),
    the top-left block of M - lam is x A + s with x = beta + gamma and
    s = delta - lam; as A^2 = I its inverse is (x A - s) / (x^2 - s^2), and
    its Schur complement is the level-(n-1) operator with a's weight
    -alpha^2 x / (x^2 - s^2), lam moved by -alpha^2 s / (x^2 - s^2) and the
    weights of b, c, d rotated.  Haynsworth additivity adds the negative
    counts of the blocks: 2^(n-2) eigenvalues each of x + s and s - x, down
    to level 1, whose operator alpha a + (beta + gamma + delta) has the
    eigenvalues beta + gamma + delta -/+ alpha (level 0 is the scalar
    alpha + beta + gamma + delta).

    Poles.  Where x^2 = s^2 exactly and alpha != 0 the block x A + s is
    singular, and the count is still that of the eigenvalues strictly below
    lam (so the left limit of the count), through another congruence.  At
    x = s = 0 the block is 0, and each of its rows pairs with a bottom row
    into one negative and one positive eigenvalue: 2^(n-1) in all.  Otherwise
    x A + s is 0 on the 2^(n-2)-dimensional eigenspace of A where s -/+ x
    vanishes and 2 s on the other one; the zero part pairs off with the bottom
    rows of the same eigenspace (2^(n-2) negatives), and the rest is the
    compression of the bottom block, less alpha^2 / (2 s), to the other
    eigenspace of a.  There b, c, d act as (a, c), (a, d), (1, b), so that
    compression is half the level-(n-2) operator (beta + delta) a + gamma b
    + delta c + beta d at 2 lam + alpha^2 / s - gamma.  At alpha = 0 the
    blocks do not couple.  Python floats and ints throughout: numpy bools
    add as logical or.
    """
    alpha, beta, gamma, delta = (float(w) for w in weights)
    lam = float(lam)
    count = 0
    while n >= 2:
        x, s = beta + gamma, delta - lam
        half = 1 << (n - 2)
        count += half * (int(x + s < 0) + int(s - x < 0))
        if abs(x) != abs(s):
            pole = x * x - s * s
            alpha, lam = -alpha * alpha * x / pole, lam - alpha * alpha * s / pole
        elif x == 0.0 and alpha != 0.0:
            return count + 2 * half
        elif alpha != 0.0:
            alpha, beta, gamma, delta, lam = beta + delta, gamma, delta, beta, 2.0 * lam + alpha * alpha / s - gamma
            count += half
            n -= 2
            continue
        beta, gamma, delta = delta, beta, gamma
        n -= 1
    if n == 1:
        rest = beta + gamma + delta
        return count + int(rest - abs(alpha) < lam) + int(rest + abs(alpha) < lam)
    return count + int(alpha + beta + gamma + delta < lam)


def reference_hausdorff_to_set(points, target):
    """Reference directed distances (forward, backward) between points and an interval union.

    The forward distance keeps one full-length gap array per interval and
    takes their pointwise minimum; the backward one is that of hausdorff_to_set.
    """
    pts = np.sort(np.asarray(points, dtype=float))
    if not pts.size:
        raise ValueError("need at least one point")
    if target.is_empty():
        raise ValueError("target union is empty")
    gaps = [np.where((lo <= pts) & (pts <= hi), 0.0, np.minimum(abs(pts - lo), abs(pts - hi))) for lo, hi in target]
    forward = float(np.min(gaps, axis=0).max())

    backward = 0.0
    mids = (pts[:-1] + pts[1:]) / 2.0
    for lo, hi in target:
        candidates = np.concatenate([[lo, hi], mids[(lo < mids) & (mids < hi)]])
        i = np.searchsorted(pts, candidates)
        right = np.where(i < pts.size, pts[np.minimum(i, pts.size - 1)] - candidates, math.inf)
        left = np.where(i > 0, candidates - pts[np.maximum(i - 1, 0)], math.inf)
        backward = max(backward, float(np.minimum(left, right).max()))
    return forward, backward


def suite_word_action():
    """is_identity agrees with the brute-force level-10 action for length <= 8."""
    identity = np.arange(1 << 10)
    count = 0
    trivial = 0
    for word, perm in _all_words_with_perms(10):
        acts_trivially = bool(np.array_equal(perm, identity))
        assert is_identity(word) == acts_trivially, f"word problem mismatch for {word!r}"
        trivial += acts_trivially
        count += 1
    return f"{count} words checked on V_10, {trivial} identities"


def bfs_orbital_ball(x: BoundaryPoint, gens, radius: int) -> MarkedGraph:
    """Reference orbital ball: a breadth-first search that acts on each point found.

    One breadth-first pass over the points as they are found: by the time
    the first point at distance ``radius`` is expanded, every point of the
    ball is known, so a label's image there is either a known point or
    outside.  An image g(y) = z also gives g(z) = y, so each edge costs one
    boundary action.
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
    return MarkedGraph(tuple(str(y) for y in points), gens, {g: np.array(t, dtype=np.int64) for g, t in images.items()})


def suite_ball_monotone():
    """Smaller orbital balls are prefixes of larger ones: names, numbering and cut image tables."""
    cases = [
        (BoundaryPoint.parse("(1)"), ("a", "b", "c", "d"), 16),
        (BoundaryPoint.parse("(0)"), ("a", "b", "c", "d"), 16),
        (BoundaryPoint.parse("01(10)"), ("a", "b", "c", "d"), 12),
        (BoundaryPoint.parse("(1)"), ("a", "d"), 16),
        (BoundaryPoint.parse("110010(011)"), ("b", "c", "d"), 16),
    ]
    checked = 0
    for x, gens, r_max in cases:
        big = orbital_ball(x, gens, r_max)
        for r in range(r_max):
            small = orbital_ball(x, gens, r)
            dim = len(small.vertices)
            assert small.vertices == big.vertices[:dim] and small.labels == big.labels, (str(x), gens, r)
            for g in gens:
                cut = big.images[g][:dim].copy()
                cut[cut >= dim] = -1
                assert np.array_equal(small.images[g], cut), (str(x), gens, r, g)
            checked += 1
    return f"{checked} radius pairs across {len(cases)} center/generator cases"


def in_omega(p: tuple[float, float]) -> bool:
    alpha, beta = p
    return abs(abs(alpha) - abs(beta)) <= 2.0 and abs(alpha) + abs(beta) >= 2.0


def suite_omega_invariance():
    """Membership in the invariant region is preserved both ways by the map.

    10^5+ quasi-random points of the [-6,6]^2 box away from the beta = +-2
    pole lines; the equivalence is exact, so no tolerance enters.
    """
    pts = qmc.Sobol(d=2, scramble=False).random_base2(m=17) * 12.0 - 6.0
    pts = pts[np.abs(pts[:, 1]) != 2.0]
    images = np.column_stack(renorm_map((pts[:, 0], pts[:, 1])))  # one array call maps every point
    for p, image in zip(pts.tolist(), images.tolist()):
        assert in_omega(p) == in_omega(image), p
    assert len(pts) >= 10**5
    return f"{len(pts)} quasi-random points"


def spectral_shift_check(M, alphas, R: float, tol: float) -> tuple[list[bool], list[bool]]:
    """Whether each probe alpha is in sigma(M), tested directly and through the shifted operator.

    For symmetric M the shifted operator S = I - (M - alpha I)^2 / R^2 has
    eigenvalues 1 - (lambda - alpha)^2 / R^2, so membership of alpha in the
    spectrum maps to membership of 1 in sigma(S).  The direct test accepts
    |lambda - alpha| <= tol; the shifted test uses the threshold tol / R^2 on
    |mu - 1|, i.e. it accepts |lambda - alpha| up to sqrt(tol).  Probes should
    stay clear of the band (tol, sqrt(tol)) where the two tests disagree by
    construction.  M is solved once and each S once per probe; the verdicts
    come back as two lists, (direct, shifted), in probe order.  M is a dense
    array or an OperatorMatrix; the latter is laid out along its line as a
    scipy matrix, so that it and each of its S, a band twice as wide, are
    solved in that order (given_order).
    """
    if isinstance(M, OperatorMatrix):
        A, eye = M.csr()[M.line][:, M.line], sparse.identity(M.dim, format="csr")
    else:
        A = np.asarray(M, dtype=float)
        eye = np.eye(A.shape[0])
    values = sym_eigs(given_order(A)).eigenvalues
    norm = float(np.abs(values).max(initial=0.0))
    if R < 2.0 * norm:
        raise ValueError(f"need R >= 2 ||M|| = {2.0 * norm}, got {R}")
    if R <= 0.0:
        raise ValueError("need a positive radius")
    direct, shifted = [], []
    for alpha in alphas:
        K = A - alpha * eye
        S = eye - (K @ K) / (R * R)
        direct.append(bool(np.abs(values - alpha).min() <= tol))
        shifted.append(bool(np.abs(sym_eigs(given_order(S)).eigenvalues - 1.0).min() <= tol / (R * R)))
    return direct, shifted


def suite_shift_agreement():
    """Direct and shifted spectral membership agree on random symmetric matrices.

    Probes sit either on computed eigenvalues or at distance >= 0.05 from the
    whole spectrum, clear of the band where the two tolerances differ.
    """
    rng = np.random.default_rng(20240814)
    checks = 0
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        raw = rng.uniform(-1.0, 1.0, (dim, dim))
        M = (raw + raw.T) / 2.0
        values = sym_eigs(given_order(M)).eigenvalues
        norm = float(np.abs(values).max())
        R = 2.0 * norm if norm else 1.0
        probes = list(rng.choice(values, 10))
        top, bottom = values.max(), values.min()
        for _ in range(10):
            off = 0.05 + float(rng.uniform(0.0, 1.0))
            probes.append(top + off if rng.random() < 0.5 else bottom - off)
        direct, shifted = spectral_shift_check(M, probes, R, 1e-8)
        assert direct == shifted, (dim, [alpha for alpha, d, s in zip(probes, direct, shifted) if d != s])
        checks += len(probes)
    return f"{checks} probe agreements over 100 random matrices"
