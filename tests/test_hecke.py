import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from selfsim import group, hecke
from selfsim.group import BoundaryPoint, boundary_image
from selfsim.hecke import (
    AlgebraElement,
    _pencil,
    assemble_level,
    assemble_orbital,
    delta_element,
    generator_sum_element,
    groupoid_block,
    schur_step_check,
)
from selfsim.schreier import _line_tables, orbital_ball
from selfsim.spectra import _band, sym_eigs
from suites import _act_via_decomposition, given_order, is_identity, tree_count, word_perm

ABCD = ("a", "b", "c", "d")
NON_DYADIC = AlgebraElement.from_terms(
    [("", 0.37), ("a", 0.3), ("b", -0.7), ("c", 1.1), ("d", 0.2), ("aba", 0.45)]
)
B_MINUS_C = AlgebraElement.from_terms([("b", 1.0), ("c", -1.0)])


def _dense(M):
    return M.csr().toarray()


def _generator(letter, n):
    return _dense(assemble_level(AlgebraElement.from_terms([(letter, 1.0)]), n))


def test_level_zero_and_one_matrices():
    for g in ABCD:
        assert np.array_equal(_generator(g, 0), [[1]])
    assert np.array_equal(_generator("a", 1), [[0, 1], [1, 0]])
    for g in "bcd":
        assert np.array_equal(_generator(g, 1), np.eye(2))


def test_level_two_block_recursion():
    A1, B1, C1, D1 = (_generator(g, 1) for g in ABCD)
    A2, B2, C2, D2 = (_generator(g, 2) for g in ABCD)
    Z = np.zeros((2, 2))
    assert np.array_equal(A2, np.block([[Z, np.eye(2)], [np.eye(2), Z]]))
    assert np.array_equal(B2, np.block([[A1, Z], [Z, C1]]))
    assert np.array_equal(C2, np.block([[A1, Z], [Z, D1]]))
    assert np.array_equal(D2, np.block([[np.eye(2), Z], [Z, B1]]))


def test_perms_match_vertex_action():
    # the reference walks wreath_decompose, not the flip rule that word_perm reads
    for n in range(11):
        strings = [format(i, f"0{n}b") if n else "" for i in range(1 << n)]
        index = {s: i for i, s in enumerate(strings)}
        for g in ABCD:
            perm = word_perm(g, n)
            for i, s in enumerate(strings):
                assert perm[i] == index[_act_via_decomposition(g, s)]


def test_word_perm_relations():
    n = 7
    identity = np.arange(1 << n)
    for g in ABCD:
        p = word_perm(g, n)
        assert np.array_equal(p[p], identity)
    assert np.array_equal(word_perm("bc", n), word_perm("d", n))
    assert np.array_equal(word_perm("bd", n), word_perm("c", n))
    assert np.array_equal(word_perm("cd", n), word_perm("b", n))
    assert np.array_equal(word_perm("adadadad", n), identity)


def test_level_counts_match_the_tree_recursion():
    # delta, sum, two anisotropic weight vectors and seeded random ones: the four-weight level operators
    rng = np.random.default_rng(23)
    weight_sets = [(0.25,) * 4, (1.0,) * 4, (1.0, 2.0, 1.0, 1.0), (1.0, 1.0, 0.5, 1.5)]
    weight_sets += [tuple(rng.uniform(-2.0, 2.0, 4).tolist()) for _ in range(8)]
    draws = 0
    for weights in weight_sets:
        element = AlgebraElement.from_terms(zip("abcd", weights))
        for n in range(12):
            eigs = np.sort(sym_eigs(assemble_level(element, n)).eigenvalues)
            lams = rng.uniform(eigs[0] - 0.5, eigs[-1] + 0.5, 16)
            for lam in lams[np.abs(lams[:, None] - eigs).min(axis=1) > 1e-9].tolist():
                assert tree_count(weights, lam, n) == int(np.searchsorted(eigs, lam)), (weights, n, lam)
                draws += 1
    assert draws > 1000


def test_tree_count_on_poles():
    # 3/4 and -1/4 are poles of delta (x^2 = s^2) at every level, where the float recursion divided by 0; the other
    # weights put lam on a pole at the first step and reach the other branches: x = s = 0, and alpha = 0
    cases = [((0.25,) * 4, 0.75), ((0.25,) * 4, -0.25), ((1.0, 2.0, 1.0, 1.0), 4.0), ((1.0, 2.0, 1.0, 1.0), -2.0),
             ((1.0, 0.5, -0.5, 0.3), 0.3), ((0.0, 1.0, 1.0, 1.0), 3.0), ((0.7, 1.0, 0.5, 1.5), 0.0)]
    for weights, lam in cases:
        element = AlgebraElement.from_terms(zip("abcd", weights))
        for n in range(1, 12):
            eigs = sym_eigs(assemble_level(element, n)).eigenvalues
            gaps = np.abs(eigs - lam)
            # an eigenvalue is lam itself to solver accuracy or clearly apart, so the count below lam is unambiguous
            assert np.all((gaps < 1e-12) | (gaps > 1e-7)), (weights, lam, n)
            if weights == (0.25,) * 4:
                assert gaps.min() > 1e-7
            assert tree_count(weights, lam, n) == int(np.count_nonzero(eigs < lam - 1e-12)), (weights, lam, n)


def test_level_guard():
    with pytest.raises(ValueError, match="level 14 exceeds the guard 13"):
        assemble_level(delta_element(), 14)


def _to_json(element):
    return json.dumps({"terms": [{"word": w, "coef": c} for w, c in element.terms]})


def test_algebra_element_merges_and_serializes():
    e = AlgebraElement.from_terms([("a", 1.0), ("b", 2.0), ("a", 0.5)])
    assert e.terms == (("a", 1.5), ("b", 2.0))
    merged = AlgebraElement.from_terms([("adadadad", 3.0), ("", 1.0)])
    # adadadad is the identity, so both terms merge into one
    [(word, coef)] = merged.terms
    assert is_identity(word) and coef == 4.0
    assert AlgebraElement.from_json(_to_json(e)) == e


def test_from_terms_keys_each_term_once(monkeypatch):
    calls = []

    def counted(word):
        calls.append(word)
        return group._element_key(word)

    monkeypatch.setattr(hecke, "_element_key", counted)
    terms = [("adadada", 1.0), ("d", 1.0), ("adadadad", 2.0), ("", -1.0), ("ab", 1.0), ("badadadada", 1.0)]
    element = AlgebraElement.from_terms(terms)
    assert len(calls) == len(terms)  # no pairwise comparison of the terms
    assert element.terms == (("ab", 1.0), ("adadada", 2.0), ("adadadad", 1.0), ("badadadada", 1.0))


@given(st.lists(st.tuples(st.text(alphabet="abcd", max_size=4),
                          st.integers(min_value=-3, max_value=3).map(float)),
                max_size=5))
def test_algebra_element_roundtrip(terms):
    element = AlgebraElement.from_terms(terms)
    assert AlgebraElement.from_json(_to_json(element)) == element


def test_delta_spectra_small_levels():
    ev1 = sym_eigs(assemble_level(delta_element(), 1)).eigenvalues
    assert np.allclose(sorted(ev1), [0.5, 1.0], atol=1e-14)
    ev2 = sym_eigs(assemble_level(delta_element(), 2)).eigenvalues
    golden = sorted([(1 - 5**0.5) / 4, 0.5, (1 + 5**0.5) / 4, 1.0])
    assert np.allclose(sorted(ev2), golden, atol=1e-14)


def test_sum_is_exactly_four_delta():
    for n in range(7):
        four_delta = 4 * _dense(assemble_level(delta_element(), n))
        total = _dense(assemble_level(generator_sum_element(), n))
        assert np.array_equal(four_delta, total)


def test_q_param_examples():
    q1 = assemble_level(_pencil(-1.0, 0.0), 1)
    assert np.allclose(sorted(sym_eigs(q1).eigenvalues), [1.0, 3.0], atol=1e-14)
    q0 = assemble_level(_pencil(0.0, -1.0), 0)
    assert np.array_equal(_dense(q0), [[3.0]])
    q2 = assemble_level(_pencil(-1.0, -1.0), 2)
    assert np.array_equal(_dense(q2), _dense(assemble_level(generator_sum_element(), 2)))


def test_identity_on_diagonal():
    ident = AlgebraElement.from_terms([("", 2.5)])
    M = assemble_level(ident, 3)
    assert np.array_equal(_dense(M), 2.5 * np.eye(8))
    assert np.array_equal(_dense(M), _dense(M).T)


def test_operator_matrix_csv_and_meta():
    M = assemble_level(delta_element(), 1)
    assert np.array_equal(_dense(M), [[0.75, 0.25], [0.25, 0.75]])
    assert M.dim == 2


def test_schur_step_identity():
    rng = np.random.default_rng(11)
    count = 0
    while count < 25:
        alpha, beta = rng.uniform(-2.5, 2.5, 2)
        if min(abs(beta - 2.0), abs(beta + 2.0)) < 0.1:
            continue
        for n in (1, 2, 3):
            residual = schur_step_check(alpha, beta, n)
            assert residual <= 1e-12, (alpha, beta, n, residual)
        count += 1


def test_schur_step_is_sparse_at_the_assembly_guard():
    schur_step_check(0.3, 0.7, 2)  # imports scipy outside the measurement
    tracemalloc.start()
    try:
        residual = schur_step_check(0.3, 0.7, 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual <= 1e-12, residual
    # a dense 8192 x 8192 float array alone is 512 MB
    assert peak < 64 * 2**20, peak


def test_schur_step_pole():
    with pytest.raises(ValueError, match="corrector undefined"):
        schur_step_check(1.0, 2.0, 2)


def test_groupoid_block_doubles_spectrum():
    for n in (1, 3):
        element = delta_element()
        level_eigs = np.sort(sym_eigs(assemble_level(element, n)).eigenvalues)
        block_eigs = np.sort(sym_eigs(groupoid_block(element, n)).eigenvalues)
        assert np.allclose(block_eigs, np.sort(np.repeat(level_eigs, 2)), atol=1e-12)


def test_assemble_orbital_examples():
    ones = BoundaryPoint.parse("(1)")
    M, flags = assemble_orbital(delta_element(), ones, ABCD, 0)
    assert M.dim == 1 and np.array_equal(_dense(M), [[0.75]])
    assert flags.any()

    ident = AlgebraElement.from_terms([("", 1.0)])
    Mi, fi = assemble_orbital(ident, ones, ABCD, 0)
    assert np.array_equal(_dense(Mi), [[1.0]]) and not fi.any()

    with pytest.raises(ValueError, match=r"letters \['a'\] not covered"):
        assemble_orbital(delta_element(), ones, ("b", "c", "d"), 0)
    with pytest.raises(ValueError, match="radius must be >= 0"):
        assemble_orbital(AlgebraElement.from_terms([("abacaba", 1.0)]), ones, ABCD, -1)


def test_assemble_orbital_interior_rows_exact():
    M, flags = assemble_orbital(delta_element(), BoundaryPoint.parse("(1)"), ABCD, 8)
    assert np.array_equal(_dense(M), _dense(M).T)
    # interior rows sum to 1: the four quarter-weight images all stay inside
    row_sums = _dense(M).sum(axis=1)
    for i, flagged in enumerate(flags):
        if not flagged:
            assert abs(row_sums[i] - 1.0) < 1e-15


def _orbital_reference(element, ball):
    """Dense matrix and flags with every image and inverse image by the exact boundary action."""
    index = {v: i for i, v in enumerate(ball.vertices)}
    expected = np.zeros((len(index), len(index)))
    expected_flags = np.zeros(len(index), dtype=bool)
    for j, v in enumerate(ball.vertices):
        y = BoundaryPoint.parse(v)
        for word, coef in element.terms:
            i = index.get(str(boundary_image(word, y)))
            if i is not None:
                expected[i, j] += coef
            expected_flags[j] |= str(boundary_image(word[::-1], y)) not in index
    return expected, expected_flags


def test_assemble_orbital_non_palindromic_element():
    # ab and ba are mutually inverse, distinct words: the inverse image of
    # each term needs its own map
    element = AlgebraElement.from_terms([("ab", 1.0), ("ba", 1.0)])
    assert [w for w, _ in element.terms] == ["ab", "ba"]
    x = BoundaryPoint.parse("0(01)")
    M, flags = assemble_orbital(element, x, ABCD, 6)
    expected, expected_flags = _orbital_reference(element, orbital_ball(x, ABCD, 6))
    assert np.array_equal(_dense(M), expected)
    assert np.array_equal(flags, expected_flags)
    assert flags.any() and not flags.all()
    assert np.array_equal(_dense(M), _dense(M).T)


_SINGLE_LETTER_COEFS = {"a": 0.3, "b": -0.7, "c": 1.1, "d": 0.2}
ORBITAL_ELEMENTS = {
    "delta": lambda letters: delta_element(),
    # a non-dyadic single-letter mix with an identity term, over the letters of the generating set
    "mix": lambda letters: AlgebraElement.from_terms(
        [("", 0.37)] + [(g, _SINGLE_LETTER_COEFS[g]) for g in sorted(set(letters))]
    ),
    "ab+ba": lambda letters: AlgebraElement.from_terms([("ab", 1.0), ("ba", 1.0)]),
    "aca": lambda letters: AlgebraElement.from_terms([("aca", 1.0)]),
    # on 1^inf at radius 6 its map has 6 entries inside the ball, and the
    # ball's own tables composed give 4: two paths leave the ball and come back
    "abacaba": lambda letters: AlgebraElement.from_terms([("abacaba", 1.0)]),
}


# ("ab", "c") is no generating set of letters: orbital_ball rejects it
@pytest.mark.parametrize("gens", [ABCD, ("a", "d"), ("b", "c", "d"), ("ab", "c")], ids=["abcd", "ad", "bcd", "ab-c"])
@pytest.mark.parametrize("name", ORBITAL_ELEMENTS)
def test_assemble_orbital_matches_boundary_action(name, gens):
    if "ab" in gens:
        with pytest.raises(ValueError, match="'ab' is not a generator letter"):
            orbital_ball(BoundaryPoint.parse("(1)"), gens, 1)
        return
    element = ORBITAL_ELEMENTS[name]("".join(gens))
    covered = element.support_letters() <= set(gens)
    for point in ("(1)", "0(01)", "01(10)", "110010(011)"):
        for radius in (0, 1, 6):
            x = BoundaryPoint.parse(point)
            if not covered:
                with pytest.raises(ValueError, match="not covered by the ball labels"):
                    assemble_orbital(element, x, gens, radius)
                continue
            M, flags = assemble_orbital(element, x, gens, radius)
            expected, expected_flags = _orbital_reference(element, orbital_ball(x, gens, radius))
            assert np.array_equal(_dense(M), expected)
            assert np.array_equal(flags, expected_flags)


FIVE_TERMS = AlgebraElement.from_terms([("ab", 1.0), ("ba", 1.0), ("aca", 0.5), ("c", -0.3), ("", 0.2)])


# the CI headline element whose terms merge: adadada is d and adadadad the identity, since (ad)^4 = 1
MERGE = AlgebraElement.from_terms(
    [("adadada", 1.0), ("d", 1.0), ("adadadad", 2.0), ("", -1.0), ("ab", 1.0), ("badadadada", 1.0)]
)


def _random_self_adjoint(seed):
    """Random words of at most 4 letters, each with its reversal (its inverse) at the same coefficient."""
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(int(rng.integers(1, 6))):
        word, coef = "".join(rng.choice(list("abcd"), int(rng.integers(0, 5)))), float(rng.uniform(-2.0, 2.0))
        terms += [(word, coef), (word[::-1], coef)]
    return AlgebraElement.from_terms(terms)


LINE_ELEMENTS = {
    "delta": delta_element(),
    "sum": generator_sum_element(),
    "five": FIVE_TERMS,
    "merge": MERGE,
    "ab+ba": AlgebraElement.from_terms([("ab", 1.0), ("ba", 1.0)]),
    "aca+c": AlgebraElement.from_terms([("aca", 1.0), ("c", 1.0)]),
    **{f"random-{seed}": _random_self_adjoint(seed) for seed in range(8)},
}
LINE_WIDTHS = {"five": 3, "merge": 2}  # band widths along the line at levels 11 and 13


def _along_line(M):
    """M's CSR laid out along its line, which must list every index once."""
    assert np.array_equal(np.sort(M.line), np.arange(M.dim))
    return M.csr()[M.line][:, M.line]


def _bandwidth(P):
    coo = P.tocoo()
    return int(np.abs(coo.row - coo.col).max(initial=0))


@pytest.mark.parametrize("name", LINE_ELEMENTS)
def test_assembled_operators_are_bands_along_their_line(name):
    element = LINE_ELEMENTS[name]
    longest = max(len(word) for word, _ in element.terms)  # no letter moves a point more than one step
    for n in range(14):
        M = assemble_level(element, n)
        P = _along_line(M)
        width = _bandwidth(P)
        assert width <= longest, (n, width)
        if name in ("delta", "sum"):
            assert width == min(n, 1)
        if name in LINE_WIDTHS and n in (11, 13):
            assert width == LINE_WIDTHS[name] == _band(M).shape[0] - 1
        if n <= 11:
            # flipping the last coordinate commutes with the level action, and along the line it is reversal
            assert (P != P[::-1][:, ::-1]).nnz == 0, n
        # the line coordinate descends to 0 at the vertex 1^n, where the one-ended orbit folds
        assert M.line[-1] == (1 << n) - 1
    assert _bandwidth(_along_line(groupoid_block(element, 6))) <= longest
    for point in map(BoundaryPoint.parse, ("(1)", "(0)", "01(10)", "001011(100)", "110010(011)")):
        for radius in (0, 1, 2, 5, 64, 1024):
            M, _ = assemble_orbital(element, point, ABCD, radius)
            assert _bandwidth(_along_line(M)) <= longest, (str(point), radius)
            # descending offset from the root, as the line coordinate descends at levels
            assert np.all(np.diff(_line_tables(point, ABCD, radius)[1][M.line]) < 0)


def test_assemble_orbital_acts_on_no_point(monkeypatch):
    x = BoundaryPoint.parse("110010(011)")
    expected, expected_flags = _orbital_reference(FIVE_TERMS, orbital_ball(x, ABCD, 1024))

    def unused(*args):
        raise AssertionError(f"a point was parsed or acted on: {args!r}")

    monkeypatch.setattr(group, "boundary_image", unused)
    monkeypatch.setattr(BoundaryPoint, "parse", staticmethod(unused))
    M, flags = assemble_orbital(FIVE_TERMS, x, ABCD, 1024)
    assert np.array_equal(_dense(M), expected)
    assert np.array_equal(flags, expected_flags)


def _reduced_word(rng, gens, length):
    """A random word of at most length letters over gens in which no two neighbours reduce."""
    word = ""
    for _ in range(length):
        # a and one of b, c, d alternate in a reduced word
        choices = [g for g in gens if (g == "a") != (word[-1:] == "a")] if word else list(gens)
        if not choices:
            break
        word += str(rng.choice(choices))
    return word


def test_assemble_orbital_matches_boundary_action_sweep():
    rng = np.random.default_rng(20261019)
    for _ in range(500):
        gens = tuple(rng.permutation(list("abcd"))[: rng.integers(1, 5)].tolist())
        terms = [(_reduced_word(rng, gens, int(rng.integers(0, 8))), float(rng.integers(-4, 5)) / 4)
                 for _ in range(int(rng.integers(1, 4)))]
        pre = "".join(rng.choice(["0", "1"], int(rng.integers(0, 9))))
        x = BoundaryPoint(pre, "".join(rng.choice(["0", "1"], int(rng.integers(1, 5)))))
        radius = int(rng.integers(0, 21))
        element = AlgebraElement.from_terms(terms)
        M, flags = assemble_orbital(element, x, gens, radius)
        expected, expected_flags = _orbital_reference(element, orbital_ball(x, gens, radius))
        assert np.array_equal(_dense(M), expected), (str(x), gens, radius, element.terms)
        assert np.array_equal(flags, expected_flags), (str(x), gens, radius, element.terms)


def test_assemble_orbital_soft_spectrum():
    M, _ = assemble_orbital(delta_element(), BoundaryPoint.parse("(1)"), ABCD, 64)
    ev = sym_eigs(M).eigenvalues
    assert ev.min() >= -0.6 and ev.max() <= 1.1


def test_nesting_other_element():
    element = AlgebraElement.from_terms([("a", 1.0), ("b", -1.0), ("c", 2.0)])
    prev = None
    for n in range(1, 7):
        eigs = np.sort(sym_eigs(assemble_level(element, n)).eigenvalues)
        if prev is not None:
            gaps = np.abs(prev[:, None] - eigs[None, :]).min(axis=1)
            assert gaps.max() <= 1e-9
        prev = eigs


def _assert_canonical(M, expected):
    """M is the band storage of the dense array expected along its line, cut to its measured width."""
    w = _bandwidth(_along_line(M))
    assert M.entries.shape == (2 * w + 1, M.dim)
    # cell (w + k, p) holds the entry at row place p + k and column place p; outside the matrix it holds 0
    places = np.arange(M.dim) + np.arange(-w, w + 1)[:, None]
    inside = (places >= 0) & (places < M.dim)
    assert np.all(M.entries[~inside] == 0.0)
    cols = np.broadcast_to(np.arange(M.dim), places.shape)
    assert np.array_equal(M.entries[inside], expected[M.line[places[inside]], M.line[cols[inside]]])
    # the index-order view: sorted, no duplicate positions, no zeros, and bit for bit the dense reference
    S = M.csr()
    assert S.has_canonical_format and np.all(S.data != 0.0)
    assert np.array_equal(S.toarray(), expected)
    # the dense array laid out along the line is the band the solver reads
    assert np.array_equal(sym_eigs(M).eigenvalues, sym_eigs(given_order(expected[np.ix_(M.line, M.line)])).eigenvalues)


def _level_reference(element, n):
    """The level-n matrix accumulated with += term by term: duplicates add up left to right in term order."""
    dim = 1 << n
    expected = np.zeros((dim, dim))
    for word, coef in element.terms:
        expected[word_perm(word, n), np.arange(dim)] += coef
    return expected


@pytest.mark.parametrize(
    "element",
    [delta_element(), generator_sum_element(), NON_DYADIC, B_MINUS_C],
    ids=["delta", "sum", "non-dyadic", "b-minus-c"],
)
def test_level_triplets_are_canonical(element):
    # the entries of band storage, checked against the dense reference; b - c cancels to no entry at all at
    # level 1, where b and c fix both vertices, and its band is then one zero row
    for n in range(1, 11):
        _assert_canonical(assemble_level(element, n), _level_reference(element, n))
    if element is B_MINUS_C:
        assert np.array_equal(assemble_level(element, 1).entries, np.zeros((1, 2)))


def test_orbital_and_block_triplets_are_canonical():
    ball = orbital_ball(BoundaryPoint.parse("(1)"), ABCD, 64)
    for element in (delta_element(), NON_DYADIC):
        M, _ = assemble_orbital(element, BoundaryPoint.parse("(1)"), ABCD, 64)
        assert M.dim == len(ball.vertices)
        _assert_canonical(M, _orbital_reference(element, ball)[0])
    for element in (delta_element(), NON_DYADIC, B_MINUS_C):
        level = _level_reference(element, 6)
        zero = np.zeros_like(level)
        _assert_canonical(groupoid_block(element, 6), np.block([[level, zero], [zero, level]]))
