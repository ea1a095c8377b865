import json
import threading
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.linalg import eig_banded, eigvalsh_tridiagonal

from selfsim import cli, spectra
from selfsim.group import GENERATORS, BoundaryPoint
from selfsim.hecke import AlgebraElement, assemble_level, assemble_orbital, delta_element, generator_sum_element
from selfsim.renorm import IntervalUnion, lambda_slice, slice_spectrum_samples
from selfsim.spectra import (
    _band,
    _count_check,
    _prescale,
    _split_solve,
    _sterf_eigvals,
    _sturm_counts,
    _to_tridiagonal,
    hausdorff_to_set,
    sym_eigs,
)
import suites
from suites import given_order, index_order, reference_hausdorff_to_set, spectral_shift_check, tree_count

FIVE_TERMS = AlgebraElement.from_terms([("ab", 1.0), ("ba", 1.0), ("aca", 0.5), ("c", -0.3), ("", 0.2)])
# CI's merge.json: adadada is d and adadadad the identity, since (ad)^4 = 1
MERGE = AlgebraElement.from_terms([("adadada", 1.0), ("d", 1.0), ("adadadad", 2.0), ("", -1.0), ("ab", 1.0),
                                   ("badadadada", 1.0)])
GUARD_WORD = "abacabadabacabad"  # 16 letters, which move some point 16 steps along the line


def test_sym_eigs_examples():
    assert np.array_equal(sym_eigs(given_order(np.eye(3))).eigenvalues, [1.0, 1.0, 1.0])
    level1 = assemble_level(delta_element(), 1)
    assert np.allclose(np.sort(sym_eigs(level1).eigenvalues), [0.5, 1.0], atol=1e-14)
    sum2 = assemble_level(generator_sum_element(), 2)
    golden = sorted([1.0 - 5**0.5, 2.0, 1.0 + 5**0.5, 4.0])
    assert np.allclose(np.sort(sym_eigs(sum2).eigenvalues), golden, atol=1e-13)


def test_sym_eigs_rejects_asymmetric():
    with pytest.raises(ValueError, match="asymmetry"):
        sym_eigs(given_order(np.array([[0.0, 1.0], [0.0, 0.0]])))
    # ab is not its own inverse, so its band along the line differs from its transpose
    with pytest.raises(ValueError, match=r"asymmetry 1\.000e\+00"):
        sym_eigs(assemble_level(AlgebraElement.from_terms([("ab", 1.0)]), 4))


def test_sym_eigs_takes_only_an_operator_matrix():
    # an array or scipy matrix has no line: the level-10 delta operator in index order is a width-512 band
    for A in (np.eye(3), sparse.csr_matrix(np.eye(3)), index_order(assemble_level(delta_element(), 10))):
        with pytest.raises(TypeError, match=f"takes an OperatorMatrix, got {type(A).__name__}$"):
            sym_eigs(A)


def test_prescale_is_exactly_equivariant():
    rng = np.random.default_rng(3)
    for dim in (2, 5, 16):
        A = rng.standard_normal((dim, dim))
        A = A + A.T
        base = sym_eigs(given_order(A)).eigenvalues
        assert np.array_equal(sym_eigs(given_order(4.0 * A)).eigenvalues, 4.0 * base)
        assert np.array_equal(sym_eigs(given_order(0.25 * A)).eigenvalues, 0.25 * base)


def test_sym_eigs_zero_matrix():
    assert np.array_equal(sym_eigs(given_order(np.zeros((4, 4)))).eigenvalues, np.zeros(4))


def test_sym_eigs_report():
    report = sym_eigs(assemble_level(delta_element(), 3))
    assert report.dim == 8
    assert report.residual_bound <= 1e-10 * (1.0 + 1.0)
    csv = report.to_csv()
    head, column, *rows = csv.splitlines()
    assert head.startswith("# dim=8 residual_bound=")
    assert column == "value"
    assert [float(r) for r in rows] == sorted(report.eigenvalues)


def test_sym_eigs_residual_invariant():
    rng = np.random.default_rng(7)
    for dim in (3, 10, 40):
        A = rng.standard_normal((dim, dim))
        A = (A + A.T) / 2.0
        report = sym_eigs(given_order(A))
        norm = float(np.abs(A).max())
        assert report.residual_bound <= 1e-10 * (1.0 + norm)


def test_wide_band_is_reduced_and_counted():
    # a band wider than 1 is reduced by ?sbtrd and its eigenvalues come from ?sterf, as in values-only ?sbevd; no
    # eigenvector is computed, and Sturm counts of the reduced tridiagonal check the values
    M = assemble_level(FIVE_TERMS, 10)
    scaled, p = _flushed_band(M)
    report = sym_eigs(M)
    assert (M.dim, report.lapack_driver, report.bandwidth, report.halvings) == (1024, "sbtrd+sterf", 3, 0)
    assert np.array_equal(report.eigenvalues, p * eig_banded(scaled, lower=True, eigvals_only=True))
    assert report.count_shifts == _documented_shifts(report.eigenvalues / p, M.dim).size == 999
    assert report.residual_bound == 1024 * np.finfo(float).eps


def test_spectral_shift_check_takes_an_operator_matrix():
    # the assembled level-3 delta, solved along its line, gives the verdicts of its dense array
    M = assemble_level(delta_element(), 3)
    dense = index_order(M).toarray()
    values = sym_eigs(given_order(dense)).eigenvalues.tolist()
    # members, non-members, and one probe on each side of sqrt(tol) = 1e-4, where the two tests disagree
    probes = [*values, 0.1, -0.3, 0.6, 2.0, 0.25 + 1e-3, values[0] - 5e-5, values[-1] + 2e-4]
    direct, shifted = spectral_shift_check(M, probes, 2.0, 1e-8)
    assert (direct, shifted) == spectral_shift_check(dense, probes, 2.0, 1e-8)
    assert direct == [True] * 8 + [False] * 7
    assert shifted == [True] * 8 + [False] * 5 + [True, False]
    with pytest.raises(ValueError, match="need R >= 2"):
        spectral_shift_check(M, [0.0], 1.0, 1e-8)


def test_hausdorff_examples():
    union = IntervalUnion(((0.0, 1.0),))
    forward, backward = hausdorff_to_set([0.0, 1.0], union)
    assert forward == 0.0
    assert backward == 0.5
    # backward sup sits at 0.25, between the two samples
    forward, backward = hausdorff_to_set([-0.25, 0.75], union)
    assert forward == 0.25
    assert backward == 0.5


def test_hausdorff_grid():
    union = IntervalUnion(((0.0, 1.0),))
    grid = np.linspace(0.0, 1.0, 1001)
    forward, backward = hausdorff_to_set(grid, union)
    assert forward == 0.0
    # backward supremum sits at grid midpoints: half the 1e-3 pitch
    assert backward <= 5.001e-4


def test_hausdorff_degenerate_target():
    union = IntervalUnion(((-1.0, -1.0), (3.0, 3.0)))
    forward, backward = hausdorff_to_set([-1.0, 3.0], union)
    assert forward == 0.0 and backward == 0.0
    forward, backward = hausdorff_to_set([0.0], union)
    assert forward == 1.0 and backward == 3.0


def test_hausdorff_slice_level_eight():
    eigs = sym_eigs(assemble_level(delta_element(), 8)).eigenvalues
    forward, backward = hausdorff_to_set(eigs, lambda_slice(-1.0).from_pairs([[-0.5, 0.0], [0.5, 1.0]]))
    assert forward <= 1e-9
    assert backward <= 0.02


def test_shift_check_examples():
    assert spectral_shift_check(np.eye(2), [1.0], 2.0, 1e-8) == ([True], [True])
    level1 = index_order(assemble_level(delta_element(), 1)).toarray()
    assert spectral_shift_check(level1, [0.5, 0.0], 2.0, 1e-8) == ([True, False], [True, False])
    assert spectral_shift_check(level1, [], 2.0, 1e-8) == ([], [])


def test_shift_check_tolerance_scaling():
    # the shifted test accepts |lambda - alpha| up to sqrt(tol) = 1e-4 whatever R is; the direct one up to tol
    assert spectral_shift_check(np.eye(2), [1 + 5e-5, 1 + 2e-4], 4.0, 1e-8) == ([False, False], [True, False])


def test_shift_check_solves_each_matrix_once(monkeypatch):
    calls = []
    monkeypatch.setattr(suites, "sym_eigs", lambda M: calls.append(M.dim) or sym_eigs(M))
    spectral_shift_check(np.eye(3), [0.0, 1.0, 2.0, 3.0], 2.0, 1e-8)
    assert calls == [3] * 5  # M once, then one shifted operator per probe


def test_shift_check_radius_guard():
    with pytest.raises(ValueError, match="need R >= 2"):
        spectral_shift_check(np.eye(2), [1.0], 1.5, 1e-8)
    with pytest.raises(ValueError, match="need a positive radius"):
        spectral_shift_check(np.zeros((2, 2)), [0.0], 0.0, 1e-8)


_sym_dims = st.integers(min_value=1, max_value=8)


@given(_sym_dims, st.integers(min_value=0, max_value=2**32 - 1))
def test_eigvals_match_trace_and_norm(dim, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim))
    A = (A + A.T) / 2.0
    values = sym_eigs(given_order(A)).eigenvalues
    assert values.shape == (dim,)
    assert abs(values.sum() - np.trace(A)) <= 1e-10 * (1.0 + abs(np.trace(A)))
    frob = float(np.sqrt((A * A).sum()))
    assert abs(np.sqrt((values * values).sum()) - frob) <= 1e-10 * (1.0 + frob)


def _generator_sum_closed_form(level):
    """{2, 4} and 1 +- sqrt(5 - 4 cos(2 pi j / 2^k)), 2 <= k <= level, odd j < 2^(k-1)."""
    values = [2.0, 4.0]
    for k in range(2, level + 1):
        j = np.arange(1, 1 << (k - 1), 2)
        root = np.sqrt(5.0 - 4.0 * np.cos(2.0 * np.pi * j / (1 << k)))
        values.extend(1.0 - root)
        values.extend(1.0 + root)
    return np.sort(values)


def test_generator_sum_matches_closed_form(delta_levels, sum13_eigs):
    eigs, _ = delta_levels
    # the sum is exactly four times delta, so the fixture covers both
    for n in range(1, 13):
        gap = np.abs(4.0 * eigs[n] - _generator_sum_closed_form(n)).max()
        assert gap <= 1e-12, (n, gap)
    assert np.abs(sum13_eigs - _generator_sum_closed_form(13)).max() <= 1e-12
    direct = sym_eigs(assemble_level(generator_sum_element(), 9)).eigenvalues
    assert np.abs(direct - _generator_sum_closed_form(9)).max() <= 1e-12


def test_permuted_tridiagonal_matches_dense_solver():
    rng = np.random.default_rng(11)
    for dim in (2, 9, 200):
        T = np.diag(rng.standard_normal(dim))
        off = rng.standard_normal(dim - 1)
        T += np.diag(off, 1) + np.diag(off, -1)
        perm = rng.permutation(dim)
        shuffled = T[perm][:, perm]
        report = sym_eigs(given_order(shuffled))
        rows, cols = np.nonzero(shuffled)
        # an array is solved in its given order
        assert report.bandwidth == np.abs(rows - cols).max()
        assert np.abs(np.array(report.eigenvalues) - np.linalg.eigvalsh(T)).max() <= 1e-12
        values = sym_eigs(given_order(sparse.csr_matrix(shuffled))).eigenvalues
        assert np.abs(values - np.linalg.eigvalsh(T)).max() <= 1e-12


def test_dense_symmetric_matches_dense_solver():
    rng = np.random.default_rng(12)
    for dim in (1, 6, 60):
        A = rng.standard_normal((dim, dim))
        A = (A + A.T) / 2.0
        report = sym_eigs(given_order(A))
        assert report.bandwidth == dim - 1
        assert np.abs(np.array(report.eigenvalues) - np.linalg.eigvalsh(A)).max() <= 1e-12


def _tridiagonal(d, e):
    return given_order(sparse.diags([e, d, e], [-1, 0, 1]))


def _flushed_band(M):
    """The lower band that sym_eigs hands to LAPACK, and the prescale factor."""
    # the prescaled band, where tiny entries may have lost bits
    band, p = _prescale(_band(M))
    band[np.abs(band) < np.finfo(float).eps / (2 * band.shape[1])] = 0.0  # and the graded-input flush
    return band, p


def _scaled_tridiagonal(M):
    """The diagonal and off-diagonal that the split and the count check see, and the prescale factor."""
    band, p = _flushed_band(M)
    return (*_to_tridiagonal(band), p)


def _documented_blocks(M):
    """The blocks (diagonal, off-diagonal) that Cantoni-Butler halving leaves, in the order the split makes them."""
    d, e, _ = _scaled_tridiagonal(M)
    blocks = []
    while d.size % 2 == 0 and np.array_equal(d, d[::-1]) and np.array_equal(e, e[::-1]):
        m = d.size // 2
        blocks.append((np.append(d[: m - 1], d[m - 1] - e[m - 1]), e[: m - 1]))
        d, e = np.append(d[: m - 1], d[m - 1] + e[m - 1]), e[: m - 1]
    blocks.append((d, e))
    return blocks


def _documented_driver(M):
    """The driver record the split should give: which route each block of the halving takes."""
    bipartite = [d.size >= 2 and np.all(d == d[0]) for d, _ in _documented_blocks(M)]
    return "+".join(name for name, ran in (("sterf", not all(bipartite)), ("lasq1", any(bipartite))) if ran)


def _eigvals_and_halvings(M, driver="sterf"):
    report = sym_eigs(M)
    assert report.lapack_driver == driver
    return report.eigenvalues, report.halvings


# dyadic entries make every halving exact; the others round once per halving
_entry = st.one_of(
    st.integers(min_value=-64, max_value=64).map(lambda k: k / 8.0),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)


@given(st.integers(min_value=1, max_value=128).flatmap(
    lambda m: st.tuples(st.lists(_entry, min_size=m, max_size=m), st.lists(_entry, min_size=m, max_size=m))
))
# d = [0, t, t, 0], e = [t, 1/8, t]: unsplit ?sterf returns -/+0.12499999999277 here
@example(([0.0, 3.03e-142], [0.125, 3.03e-142]))
def test_persymmetric_split_matches_unsplit_stemr(halves):
    # an even-dimension tridiagonal that equals its own reversal: d = h + rev(h), e = g + [c] + rev(g)
    head, (c, *tail) = halves
    d = np.array(head + head[::-1])
    e = np.array(tail + [c] + tail[::-1])
    M = _tridiagonal(d, e)
    # solved in its given order, the band stays persymmetric even where an off-diagonal entry is zero; a block
    # left by the halvings can have a constant diagonal (head [1, 2] with c = 1 leaves [1, 1])
    values, halvings = _eigvals_and_halvings(M, _documented_driver(M))
    assert halvings >= 1
    # ?stemr, not ?sterf, which loses digits on graded input (and numpy's eigvalsh reaches ?sterf too)
    unsplit = eigvalsh_tridiagonal(d, e, lapack_driver="stemr")
    top = float(max(np.abs(d).max(), np.abs(e).max(initial=0.0)))
    assert np.abs(values - unsplit).max() <= 1e-12 * (1.0 + top)


def test_unsplit_bands_match_eig_banded_bitwise():
    rng = np.random.default_rng(13)
    for dim in (3, 9, 255, 256, 1025):
        d, e = rng.standard_normal(dim), rng.standard_normal(dim - 1)
        band = _band(_tridiagonal(d, e))
        values, halvings = _eigvals_and_halvings(_tridiagonal(d, e))
        assert halvings == 0
        scaled, p = _prescale(band)
        assert np.array_equal(values, p * eig_banded(scaled, lower=True, eigvals_only=True))
    # odd dimensions never split, even where the band is persymmetric
    d, e = np.array([1.0, 2.0, 1.0]), np.array([0.5, 0.5])
    assert _eigvals_and_halvings(_tridiagonal(d, e))[1] == 0


# some off-diagonal entries are zero, which splits the path; c is never subnormal once prescaled
_off_entry = st.one_of(_entry, st.just(0.0))
_diagonal_value = _entry.filter(lambda c: c == 0.0 or abs(c) > 1e-300)


@given(_diagonal_value, st.lists(_off_entry, min_size=1, max_size=200))
@example(6.2636119134375985e-34, [0.0, 0.125])
def test_constant_diagonal_matches_unsplit_stemr(c, off):
    e = np.array(off)
    d = np.full(e.size + 1, c)
    M = _tridiagonal(d, e)
    values = sym_eigs(M).eigenvalues
    unsplit = eigvalsh_tridiagonal(d, e, lapack_driver="stemr")
    top = float(max(abs(c), np.abs(e).max()))
    assert np.abs(values - unsplit).max() <= 1e-12 * (1.0 + top)
    if d.size % 2:
        # odd dimensions never halve, and the padded zero of the bidiagonal gives c itself, or 0 where a
        # c below eps / (2 dim) of the band's top is flushed
        assert _eigvals_and_halvings(M, "lasq1")[1] == 0
        assert c in values or (0.0 in values and abs(c) < np.finfo(float).eps * top)


_GRADED = ("0", "t", "2t", "1/8", "1/4")


@given(
    st.integers(min_value=3, max_value=8).flatmap(
        lambda m: st.tuples(st.lists(st.sampled_from(_GRADED), min_size=m, max_size=m),
                            st.lists(st.sampled_from(_GRADED), min_size=m - 1, max_size=m - 1))
    ),
    st.floats(min_value=1e-170, max_value=1e-120),
)
@example((["t", "t", "2t", "0"], ["t", "1/4", "2t"]), 1e-160)
@example((["1/8", "2t", "2t"], ["0", "t"]), 1e-170)
# the zero matrix: count shifts scaled by the largest value would fall below pivmin here
@example((["0", "0", "0"], ["0", "0"]), 1e-160)
def test_graded_tridiagonals_match_bisection(names, t):
    # entries near t sit beside entries near 1/4; unflushed, ?sterf missed by up to 1e-6 on such draws.  The
    # reference is LAPACK bisection (?stebz): ?stemr fails to converge on a few draws with t below 1e-154
    value = {"0": 0.0, "t": t, "2t": 2.0 * t, "1/8": 0.125, "1/4": 0.25}
    d, e = (np.array([value[name] for name in row]) for row in names)
    reference = eigvalsh_tridiagonal(d, e, lapack_driver="stebz")
    report = sym_eigs(_tridiagonal(d, e))  # the count check passes
    assert np.abs(np.array(report.eigenvalues) - reference).max() <= 1e-12 and report.count_shifts >= 2


def test_graded_band_is_flushed():
    # unflushed, ?sterf gave -/+0.25000096 here, against a bound of dim * eps
    t = 1e-160
    M = sparse.diags([[t, 0.25, 2 * t], [t, t, 2 * t, 0.0], [t, 0.25, 2 * t]], [-1, 0, 1])
    values = sym_eigs(given_order(M)).eigenvalues
    assert np.abs(values - [-0.25, 0.0, 0.0, 0.25]).max() <= 1e-15
    assert np.array_equal(sym_eigs(given_order(4.0 * M)).eigenvalues, 4.0 * values)
    # unflushed, ?stemr stopped here with "did not converge", so sym_eigs raised
    t = 1e-170
    M = _tridiagonal(np.array([0.125, 2 * t, 2 * t]), np.array([0.0, t]))
    assert sym_eigs(M).eigenvalues.tolist() == [0.0, 0.0, 0.125]


def test_bipartite_solve_is_exactly_equivariant():
    ball = assemble_orbital(delta_element(), BoundaryPoint.parse("(0)"), GENERATORS, 1024)[0]
    M = index_order(ball)[ball.line][:, ball.line]  # a scipy matrix is solved in its given order
    values, halvings = _eigvals_and_halvings(given_order(M), "lasq1")
    assert halvings == 0 and values.size == 2049 and 0.25 in values
    assert np.array_equal(sym_eigs(given_order(4.0 * M)).eigenvalues, 4.0 * values)


def test_ordering_ignores_the_diagonal():
    # diagonal entries do not widen the band of a path given in order, nor of a level operator along its line
    M = np.array([[1.0, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 1.0]])
    report = sym_eigs(given_order(M))
    assert report.bandwidth == 1 and report.lapack_driver == "sterf"
    assert np.abs(np.array(report.eigenvalues) - np.linalg.eigvalsh(M)).max() <= 1e-12
    for terms in ([("a", 1.0), ("b", 1.0)], [("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0), ("", -1.0)]):
        M = assemble_level(AlgebraElement.from_terms(terms), 8)
        report = sym_eigs(M)
        assert report.bandwidth == 1
        assert np.abs(report.eigenvalues - np.linalg.eigvalsh(index_order(M).toarray())).max() <= 1e-12


def _documented_shifts(w, dim):
    """The count check's shifts: below, between and above the clusters of values w closer than 2 dim eps."""
    tol = 2 * dim * np.finfo(float).eps
    mids = [(lo + hi) / 2 for lo, hi in zip(w[:-1].tolist(), w[1:].tolist()) if hi - lo >= tol]
    return np.array([w[0] - tol, *mids, w[-1] + tol])


def test_count_check_matches_tree_count():
    # the Sturm counts at the check's shifts are the counts of the tree recursion, for delta, sum and random weights
    rng = np.random.default_rng(32)
    weight_sets = [(0.25,) * 4, (1.0,) * 4] + [tuple(rng.uniform(-2.0, 2.0, 4).tolist()) for _ in range(3)]
    for weights in weight_sets:
        element = AlgebraElement.from_terms(zip("abcd", weights))
        for n in range(12):
            d, e, p = _scaled_tridiagonal(assemble_level(element, n))
            w = _split_solve(d, e)[0]
            shifts = _documented_shifts(w, d.size)
            counts = _sturm_counts(d, e, shifts).tolist()
            assert counts == [tree_count(weights, p * s, n) for s in shifts.tolist()], (weights, n)
            assert counts == np.searchsorted(w, shifts).tolist() and _count_check(d, e, w) == shifts.size


@pytest.mark.parametrize("point", ["(1)", "(0)", "(01)", "001011(100)"])
def test_count_check_matches_sym_eigvals_on_balls(point):
    for radius in (0, 5, 64, 1023, 1024, 2047):
        M = assemble_orbital(delta_element(), BoundaryPoint.parse(point), GENERATORS, radius)[0]
        report = sym_eigs(M)
        if M.dim > 2048:
            assert report.count_shifts == 0  # no check above the cutoff
            continue
        d, e, p = _scaled_tridiagonal(M)
        w = _split_solve(d, e)[0]  # the split's values, before the count check
        shifts = _documented_shifts(w, d.size)
        assert _sturm_counts(d, e, shifts).tolist() == np.searchsorted(p * w, p * shifts).tolist()
        assert report.count_shifts == shifts.size and np.array_equal(report.eigenvalues, p * w)


def _random_self_adjoint(rng):
    """One to four random reduced words of at most 4 letters, each beside its reversal (its inverse) at one weight."""
    terms = []
    for _ in range(int(rng.integers(1, 5))):
        length, start = int(rng.integers(1, 5)), int(rng.integers(2))  # a and one of b, c, d alternate
        word = "".join("a" if i % 2 == start else str(rng.choice(list("bcd"))) for i in range(length))
        coef = float(rng.uniform(-2.0, 2.0))
        terms += [(word, coef), (word[::-1], coef)]
    return AlgebraElement.from_terms(terms)


def _wide_operators():
    x = BoundaryPoint.parse("110010(011)")
    for element in (FIVE_TERMS, MERGE):
        yield from (assemble_level(element, n) for n in range(6, 12))
        yield from (assemble_orbital(element, x, GENERATORS, radius)[0] for radius in (0, 1, 64, 511, 512, 1024))
    yield assemble_orbital(AlgebraElement.from_terms(zip("dab", (1.0, 1.0, 1.0))), x, "dab", 512)[0]
    rng = np.random.default_rng(36)
    for _ in range(8):
        element = _random_self_adjoint(rng)
        yield assemble_level(element, 9)
        yield assemble_orbital(element, x, GENERATORS, 300)[0]
    # an unpivoted LDL^T of the band itself miscounts these: ab + ba has an exactly singular leading block at -1/2,
    # the midpoint of its eigenvalues -1 and 0 at level 2, and the pivots of the last one grow past gaps of 1e-11
    for terms, n in (([("ab", 1.0), ("ba", 1.0)], 2), ([("abad", 1.0), ("daba", 1.0)], 3),
                     ([("a", 1.0), ("b", 0.5), ("dad", 2.0)], 10)):
        yield assemble_level(AlgebraElement.from_terms(terms), n)
    yield assemble_level(AlgebraElement.from_terms([(GUARD_WORD, 1.0), (GUARD_WORD[::-1], 1.0)]), 11)


def test_count_check_matches_eig_banded_at_every_width():
    # the Sturm counts of the tridiagonal that is split, at the check's shifts, are the counts of the values-only
    # ?sbevd eigenvalues of the band; the eigenvalues are its bytes wherever the split takes ?sterf whole
    widths = set()
    for M in _wide_operators():
        report = sym_eigs(M)
        widths.add(report.bandwidth)
        scaled, p = _flushed_band(M)
        reference = eig_banded(scaled, lower=True, eigvals_only=True)
        d, e, _ = _scaled_tridiagonal(M)
        shifts = _documented_shifts(_split_solve(d, e)[0], M.dim)
        assert _sturm_counts(d, e, shifts).tolist() == np.searchsorted(reference, shifts).tolist()
        assert report.count_shifts == (shifts.size if M.dim <= 2048 else 0)
        if report.halvings == 0 and report.lapack_driver in ("sterf", "sbtrd+sterf"):
            assert np.array_equal(report.eigenvalues, p * reference)
        assert np.abs(report.eigenvalues - p * reference).max() <= M.dim * np.finfo(float).eps * p
    assert widths >= {1, 2, 3, 4, 16} and max(widths) == 16


def test_count_check_passes_exact_clusters():
    # the zero matrix and the identity element are one cluster each, counted below and above
    assert sym_eigs(given_order(np.zeros((4, 4)))).count_shifts == 2
    identity = AlgebraElement.from_terms([("", 1.0)])
    for n in (0, 5, 11):
        assert sym_eigs(assemble_level(identity, n)).count_shifts == 2
    # two equal tridiagonals joined by a zero off-diagonal have every eigenvalue twice: two clusters
    report = sym_eigs(_tridiagonal(np.array([1.0, 2.0, 1.0, 2.0]), np.array([0.5, 0.0, 0.5])))
    assert report.lapack_driver == "sterf" and report.count_shifts == 3
    assert np.abs(report.eigenvalues - np.repeat(1.5 + np.array([-0.5, 0.5]) * 2**0.5, 2)).max() <= 1e-15


def test_corrupted_solve_fails_the_count_check(monkeypatch, tmp_path):
    split_solve = spectra._split_solve

    def corrupted(d, e):
        w, driver, halvings = split_solve(d, e)
        w = w.copy()
        w[0] = (w[1] + w[2]) / 2  # the lowest value moves past its neighbour
        return np.sort(w), driver, halvings

    monkeypatch.setattr(spectra, "_split_solve", corrupted)
    M = assemble_level(delta_element(), 5)
    with pytest.raises(RuntimeError, match=r"Sturm count 1 at shift [-0-9.e]+ differs from 0 values below"):
        sym_eigs(M)
    assert cli.main(["spectrum", "--level", "5", "--out", str(tmp_path / "spectrum")]) == 3
    # a band wider than 1 takes the same split after ?sbtrd, and the same check
    with pytest.raises(RuntimeError, match=r"Sturm count 1 at shift [-0-9.e]+ differs from 0 values below"):
        sym_eigs(assemble_level(FIVE_TERMS, 11))
    element = tmp_path / "five.json"
    element.write_text(json.dumps({"terms": [{"word": w, "coef": c} for w, c in FIVE_TERMS.terms]}))
    argv = ["spectrum", "--element", str(element), "--level", "11", "--out", str(tmp_path / "five")]
    assert cli.main(argv) == 3


def test_faulty_band_reduction_fails_the_moment_check(monkeypatch, tmp_path):
    # the Sturm counts check the tridiagonal that ?sbtrd gives, so they pass a fault there; the sum of squares
    # of the values, the band's squared Frobenius norm, does not
    to_tridiagonal = spectra._to_tridiagonal

    def faulty(lower):
        d, e = to_tridiagonal(lower)
        return (d, 1.01 * e) if lower.shape[0] > 2 else (d, e)

    monkeypatch.setattr(spectra, "_to_tridiagonal", faulty)
    for n in (10, 13):
        with pytest.raises(RuntimeError, match=r"eigenvalue sum of squares [-0-9.e]+ differs from"):
            sym_eigs(assemble_level(FIVE_TERMS, n))
    element = tmp_path / "five.json"
    element.write_text(json.dumps({"terms": [{"word": w, "coef": c} for w, c in FIVE_TERMS.terms]}))
    assert cli.main(["spectrum", "--element", str(element), "--level", "12", "--out", str(tmp_path / "five")]) == 3


def test_corrupted_solve_above_the_count_cutoff_fails_the_moment_check(monkeypatch, tmp_path):
    # above dimension 2048 no Sturm count runs: the sum of the values, the band's trace, sees one value moved
    split_solve = spectra._split_solve

    def corrupted(d, e):
        w, driver, halvings = split_solve(d, e)
        w = w.copy()
        w[w.size // 2] += 1e-3
        return np.sort(w), driver, halvings

    monkeypatch.setattr(spectra, "_split_solve", corrupted)
    with pytest.raises(RuntimeError, match=r"eigenvalue sum [-0-9.e]+ differs from"):
        sym_eigs(assemble_level(delta_element(), 12))
    assert cli.main(["spectrum", "--level", "12", "--out", str(tmp_path / "spectrum")]) == 3


def test_sum_is_four_times_delta_bitwise():
    # every level up to the cutoff now takes the split too; the prescale makes the two solves see the same bits
    for n in range(12):
        delta = sym_eigs(assemble_level(delta_element(), n))
        total = sym_eigs(assemble_level(generator_sum_element(), n))
        assert np.array_equal(total.eigenvalues, 4.0 * delta.eigenvalues), n
        assert total.solver == delta.solver and total.residual_bound == delta.residual_bound


def test_split_small_dimensions_and_diagonal_band():
    assert np.array_equal(sym_eigs(given_order(np.array([[0.75]]))).eigenvalues, [0.75])
    values, halvings = _eigvals_and_halvings(given_order(np.array([[0.5, 0.25], [0.25, 0.5]])))
    assert halvings == 1 and np.array_equal(values, [0.25, 0.75])
    # the - block of this one is [[1, 0.5], [0.5, 1]] and its + block [[1, 0.5], [0.5, 3]]
    M = _tridiagonal(np.array([1.0, 2.0, 2.0, 1.0]), np.array([0.5, 1.0, 0.5]))
    assert _documented_driver(M) == "sterf+lasq1"
    values, halvings = _eigvals_and_halvings(M, "sterf+lasq1")
    assert halvings == 1 and np.abs(values - np.linalg.eigvalsh(index_order(M).toarray())).max() <= 1e-15
    identity = AlgebraElement.from_terms([("", 1.0)])
    # the - blocks of a diagonal band of size 2 and more have a constant diagonal; the last + block has size 1
    for n, driver in ((0, "sterf"), (1, "sterf"), (5, "sterf+lasq1")):
        M = assemble_level(identity, n)
        assert sym_eigs(M).bandwidth == 0
        values, halvings = _eigvals_and_halvings(M, driver)
        assert halvings == n and np.array_equal(values, np.ones(1 << n))


def test_level_operators_halve():
    for n in range(1, 14):
        assert _eigvals_and_halvings(assemble_level(delta_element(), n))[1] == n
    general = AlgebraElement.from_terms([("a", -0.7), ("b", 1.0), ("c", 1.3), ("d", 0.2), ("", 0.1)])
    assert _eigvals_and_halvings(assemble_level(general, 8))[1] == 1


def test_sym_eigs_sparse_input_rejects_asymmetric():
    with pytest.raises(ValueError, match="asymmetry"):
        sym_eigs(given_order(sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))))


def _hausdorff_brute_force(points, pairs):
    pts = sorted(points)
    forward = max(min(0.0 if lo <= p <= hi else min(abs(p - lo), abs(p - hi)) for lo, hi in pairs) for p in pts)
    backward = 0.0
    mids = [(a + b) / 2.0 for a, b in zip(pts, pts[1:])]
    for lo, hi in pairs:
        for c in [lo, hi] + [m for m in mids if lo < m < hi]:
            backward = max(backward, min(abs(c - p) for p in pts))
    return forward, backward


_finite = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


@given(
    st.lists(_finite, min_size=1, max_size=12),
    st.lists(st.tuples(_finite, _finite).map(sorted), min_size=1, max_size=3),
)
def test_hausdorff_matches_brute_force(points, pairs):
    union = IntervalUnion(tuple(tuple(p) for p in pairs))
    merged = [tuple(p) for p in union]
    assert hausdorff_to_set(points, union) == _hausdorff_brute_force(points, merged)
    assert hausdorff_to_set(np.array(points), union) == _hausdorff_brute_force(points, merged)


_point = st.one_of(_finite, st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 8.0, np.nan, np.inf, -np.inf]))
_end = st.one_of(_finite, st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]))


@given(
    st.lists(_point, min_size=1, max_size=40),
    st.lists(st.tuples(_end, _end).map(sorted), min_size=1, max_size=6),
)
@example([-0.0, 2.0], [(0.0, 1.0)])
@example([np.nan, 0.5, 3.0], [(0.0, 1.0)])
def test_hausdorff_matches_reference_bitwise(points, pairs):
    # the per-interval gap arrays of the reference against one slice per gap; repr tells -0.0 and NaN apart
    union = IntervalUnion(tuple(tuple(p) for p in pairs))
    assert repr(hausdorff_to_set(points, union)) == repr(reference_hausdorff_to_set(points, union))


def test_hausdorff_matches_reference_on_spectra(delta_levels):
    for values, union in (
        (slice_spectrum_samples(-0.5, 14), lambda_slice(-0.5)),
        (delta_levels[0][12], IntervalUnion.from_pairs([(-0.5, 0.0), (0.5, 1.0)])),
        (delta_levels[0][12], IntervalUnion.from_pairs([(-0.4, -0.1), (0.3, 0.5), (0.9, 0.95)])),
        # sorted input is read in place, any other through a sorted copy: an unsorted list, and a NaN in the middle
        # of an ascending array, which fails the sortedness test and sorts last
        ([0.75, -0.5, 1.5, 0.0, -0.25, 0.75], IntervalUnion.from_pairs([(-0.5, 0.0), (0.5, 1.0)])),
        (np.insert(delta_levels[0][10], 512, np.nan), IntervalUnion.from_pairs([(-0.5, 0.0), (0.5, 1.0)])),
    ):
        before = np.array(values, copy=True)
        assert repr(hausdorff_to_set(values, union)) == repr(reference_hausdorff_to_set(values, union))
        # the caller's points are never sorted in place
        assert np.array_equal(values, before, equal_nan=True)


@given(
    st.lists(_point, min_size=1, max_size=40),
    st.lists(st.tuples(_end, _end).map(sorted), min_size=1, max_size=6),
    st.integers(1, 5),
)
@example([np.nan, 0.5, 0.5, 0.75, 1.0, 3.0], [(0.0, 1.0)], 1)
@example([0.0, 1.0, 2.0, 2.0], [(0.5, 1.5), (1.75, 3.0)], 2)
def test_hausdorff_blocks_match_reference_bitwise(points, pairs, block):
    # the backward half a few point pairs at a time, down to one, against all midpoints at once
    union = IntervalUnion(tuple(tuple(p) for p in pairs))
    with mock.patch.object(spectra, "_HAUSDORFF_BLOCK", block):
        got = hausdorff_to_set(points, union)
    assert repr(got) == repr(reference_hausdorff_to_set(points, union))


@pytest.mark.parametrize("block", [1, 2, 1000, 1 << 15])
def test_hausdorff_blocks_match_reference_on_slice_samples(block, monkeypatch):
    monkeypatch.setattr(spectra, "_HAUSDORFF_BLOCK", block)
    for t in (-1.0, 0.0, 0.3):
        values = slice_spectrum_samples(t, 12)
        assert repr(hausdorff_to_set(values, lambda_slice(t))) == repr(reference_hausdorff_to_set(values, lambda_slice(t)))


_lo = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
_width = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(_lo, _width), min_size=1, max_size=8), st.floats(allow_nan=False, allow_infinity=False))
@example([(0.0, 1.0), (3.0, 1.0)], 2.0)
@example([(-1.0, 0.0)], -1.0)
def test_point_distance_to_union(raw, x):
    # one point's forward distance is its gap to the nearest interval, bit for bit
    union = IntervalUnion.from_pairs([(lo, lo + w) for lo, w in raw])
    assert hausdorff_to_set([x], union)[0] == min(max(lo - x, x - hi, 0.0) for lo, hi in union)


def test_capsule_sterf_matches_scipy_bitwise():
    rng = np.random.default_rng(26)
    for n in (1, 2, 3, 4, 17, 256, 1000):
        for d, e in (
            (rng.standard_normal(n), rng.standard_normal(n - 1)),
            (rng.integers(-4, 5, n) / 4.0, rng.integers(-4, 5, n - 1) / 4.0),  # repeated and zero entries
            (rng.standard_normal(n) * 1e-150, rng.standard_normal(n - 1)),  # graded
        ):
            before = d.tobytes(), e.tobytes()
            values = _sterf_eigvals(d, e)
            assert values.tobytes() == eigvalsh_tridiagonal(d, e, lapack_driver="sterf").tobytes(), n
            assert (d.tobytes(), e.tobytes()) == before  # dsterf ran on copies


def test_non_finite_input_raises():
    for d, e in (([1.0, np.nan], [0.5]), ([np.inf, np.inf], [1.0]), ([1.0, 1.0], [np.nan]), ([-np.inf], [])):
        with pytest.raises(ValueError, match="infs or NaNs"):
            _split_solve(np.array(d), np.array(e))
    # a constant diagonal goes to ?lasq1, which returned [nan, nan] here before the input was checked
    with pytest.raises(ValueError, match="infs or NaNs"):
        sym_eigs(given_order(np.array([[1.0, np.nan], [np.nan, 1.0]])))
    with pytest.raises(ValueError, match="infs or NaNs"):
        sym_eigs(_tridiagonal(np.array([1.0, np.inf, np.inf, 1.0]), np.array([0.5, 0.25, 0.5])))
    # a band wider than 1 is reduced first, and the split refuses what ?sbtrd makes of a NaN
    with pytest.raises(ValueError, match="infs or NaNs"):
        sym_eigs(given_order(np.array([[1.0, 0.5, np.nan], [0.5, 2.0, 0.5], [np.nan, 0.5, 3.0]])))
    # arrays LAPACK would read past the end of are refused before the call
    with pytest.raises(ValueError, match="dsterf needs 2 contiguous float64 arrays"):
        spectra._lapack("dsterf", 4, np.zeros(4), np.zeros(2))
    with pytest.raises(ValueError, match="dlasq1 needs 3 contiguous float64 arrays"):
        spectra._lapack("dlasq1", 4, np.zeros(4), np.zeros(4), np.zeros(15))
    with pytest.raises(ValueError, match="dsbtrd needs 5 contiguous float64 arrays"):
        spectra._lapack("dsbtrd", b"N", b"L", 4, 2, np.zeros(11), 3, np.zeros(4), np.zeros(3), np.zeros(1), 1,
                        np.zeros(4))


def _two_cpus(monkeypatch):
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setattr(spectra.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _count_thread_starts(monkeypatch):
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    return started


def _level_tridiagonal(element, n):
    band = _prescale(_band(assemble_level(element, n)))[0]
    return band[0].copy(), band[1, :-1].copy()


def test_concurrent_split_is_bitwise_serial(monkeypatch):
    _two_cpus(monkeypatch)
    started = _count_thread_starts(monkeypatch)
    four = AlgebraElement.from_terms(zip("abcd", (-0.7, 1.0, 1.3, 0.2)))
    for element in (delta_element(), generator_sum_element(), four):
        M = assemble_level(element, 12)
        blocks = _documented_blocks(M)
        assert len(blocks) == 13 and _documented_driver(M) == "sterf"
        # the serial reference: scipy's ?sterf on each block in block order
        serial = np.sort(np.concatenate([eigvalsh_tridiagonal(d, e, lapack_driver="sterf") for d, e in blocks]))
        d, e = _level_tridiagonal(element, 12)
        for _ in range(50):
            values, driver, halvings = _split_solve(d, e)
            assert values.tobytes() == serial.tobytes() and driver == "sterf" and halvings == 12
    assert len(started) == 150  # one helper thread per solve


def test_one_thread_under_omp_num_threads_one(monkeypatch):
    started = _count_thread_starts(monkeypatch)
    d, e = _level_tridiagonal(delta_element(), 10)
    _two_cpus(monkeypatch)
    threaded = _split_solve(d, e)
    assert len(started) == 1
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    serial = _split_solve(d, e)
    monkeypatch.delenv("OMP_NUM_THREADS")
    monkeypatch.setattr(spectra.os, "sched_getaffinity", lambda pid: {0})
    assert _split_solve(d, e)[0].tobytes() == serial[0].tobytes() == threaded[0].tobytes()
    assert serial[1:] == threaded[1:] == ("sterf", 10)
    # a single block (odd dimension) never starts a thread either
    _two_cpus(monkeypatch)
    assert _split_solve(d[1:], e[1:])[2] == 0
    assert len(started) == 1
