import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given
from hypothesis import strategies as st

from selfsim.errors import NotSymmetric, RadiusTooSmall
from selfsim.hecke import assemble_level, delta_element, generator_sum_element
from selfsim.renorm import IntervalUnion, lambda_slice
from selfsim.spectra import (
    eig_histogram,
    hausdorff_to_set,
    spectral_shift_check,
    sym_eigs,
    sym_eigvals,
)


def test_sym_eigvals_examples():
    assert np.array_equal(sym_eigvals(np.eye(3)), [1.0, 1.0, 1.0])
    level1 = assemble_level(delta_element(), 1)
    assert np.allclose(np.sort(sym_eigvals(level1)), [0.5, 1.0], atol=1e-14)
    sum2 = assemble_level(generator_sum_element(), 2)
    golden = sorted([1.0 - 5**0.5, 2.0, 1.0 + 5**0.5, 4.0])
    assert np.allclose(np.sort(sym_eigvals(sum2)), golden, atol=1e-13)


def test_sym_eigvals_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        sym_eigvals(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_prescale_is_exactly_equivariant():
    rng = np.random.default_rng(3)
    for dim in (2, 5, 16):
        A = rng.standard_normal((dim, dim))
        A = A + A.T
        base = sym_eigvals(A)
        assert np.array_equal(sym_eigvals(4.0 * A), 4.0 * base)
        assert np.array_equal(sym_eigvals(0.25 * A), 0.25 * base)


def test_sym_eigvals_zero_matrix():
    assert np.array_equal(sym_eigvals(np.zeros((4, 4))), np.zeros(4))


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
        report = sym_eigs(A)
        norm = float(np.abs(A).max())
        assert report.residual_bound <= 1e-10 * (1.0 + norm)


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
    eigs = sym_eigvals(assemble_level(delta_element(), 8))
    forward, backward = hausdorff_to_set(eigs, lambda_slice(-1.0).from_pairs([[-0.5, 0.0], [0.5, 1.0]]))
    assert forward <= 1e-9
    assert backward <= 0.02


def test_shift_check_examples():
    report = spectral_shift_check(np.eye(2), 1.0, 2.0, 1e-8)
    assert report.direct_member and report.shifted_member and report.agree
    level1 = assemble_level(delta_element(), 1).csr().toarray()
    in_spec = spectral_shift_check(level1, 0.5, 2.0, 1e-8)
    assert in_spec.direct_member and in_spec.shifted_member
    off_spec = spectral_shift_check(level1, 0.0, 2.0, 1e-8)
    assert not off_spec.direct_member and not off_spec.shifted_member
    assert off_spec.agree


def test_shift_check_tolerance_scaling():
    report = spectral_shift_check(np.eye(2), 1.0, 4.0, 1e-8)
    assert report.radius == 4.0
    assert report.tol_shifted == 1e-8 / 16.0


def test_shift_check_radius_guard():
    with pytest.raises(RadiusTooSmall):
        spectral_shift_check(np.eye(2), 1.0, 1.5, 1e-8)
    with pytest.raises(RadiusTooSmall):
        spectral_shift_check(np.zeros((2, 2)), 0.0, 0.0, 1e-8)


def test_histogram_examples():
    hist = eig_histogram([0.0, 0.0, 1.0], 2, (0.0, 1.0))
    assert hist.counts == (2, 1)
    assert hist.underflow == 0 and hist.overflow == 0
    assert hist.total() == 3
    spill = eig_histogram([-1.0, 0.5, 2.0, 3.0], 4, (0.0, 1.0))
    assert spill.counts == (0, 0, 1, 0)
    assert spill.underflow == 1 and spill.overflow == 2
    assert spill.total() == 4


def test_histogram_guards():
    with pytest.raises(ValueError):
        eig_histogram([0.0], 0, (0.0, 1.0))
    with pytest.raises(ValueError):
        eig_histogram([0.0], 2, (1.0, 1.0))


_sym_dims = st.integers(min_value=1, max_value=8)


@given(_sym_dims, st.integers(min_value=0, max_value=2**32 - 1))
def test_eigvals_match_trace_and_norm(dim, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim))
    A = (A + A.T) / 2.0
    values = sym_eigvals(A)
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
    direct = sym_eigvals(assemble_level(generator_sum_element(), 9))
    assert np.abs(direct - _generator_sum_closed_form(9)).max() <= 1e-12


def test_permuted_tridiagonal_matches_dense_solver():
    rng = np.random.default_rng(11)
    for dim in (2, 9, 200):
        T = np.diag(rng.standard_normal(dim))
        off = rng.standard_normal(dim - 1)
        T += np.diag(off, 1) + np.diag(off, -1)
        perm = rng.permutation(dim)
        shuffled = T[perm][:, perm]
        report = sym_eigs(shuffled)
        assert report.bandwidth == 1
        assert np.abs(np.array(report.eigenvalues) - np.linalg.eigvalsh(T)).max() <= 1e-12
        assert np.abs(sym_eigvals(sparse.csr_matrix(shuffled)) - np.linalg.eigvalsh(T)).max() <= 1e-12


def test_dense_symmetric_matches_dense_solver():
    rng = np.random.default_rng(12)
    for dim in (1, 6, 60):
        A = rng.standard_normal((dim, dim))
        A = (A + A.T) / 2.0
        report = sym_eigs(A)
        assert report.bandwidth == dim - 1
        assert np.abs(np.array(report.eigenvalues) - np.linalg.eigvalsh(A)).max() <= 1e-12
        assert np.abs(sym_eigvals(A) - np.linalg.eigvalsh(A)).max() <= 1e-12


def test_sym_eigvals_sparse_input_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        sym_eigvals(sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])))
    with pytest.raises(NotSymmetric):
        sym_eigvals(np.ones((2, 3)))


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
