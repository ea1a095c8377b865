import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from selfsim.group import BoundaryPoint, boundary_image
from selfsim.schreier import induced_ball, orbital_ball
from suites import bfs_orbital_ball

ABCD = ("a", "b", "c", "d")


def test_csv_roundtrip():
    g = orbital_ball(BoundaryPoint.parse("01(10)"), ("a", "d"), 3)
    lines = g.to_csv().splitlines()
    assert lines[:2] == ["# root=01(10)", "source,target,label"]
    assert [tuple(line.split(",")) for line in lines[2:]] == sorted(g.edges)


def test_orbital_ball_rejects_duplicate_labels():
    # one image table per label: a repeated letter would need two
    with pytest.raises(ValueError, match="duplicate labels"):
        orbital_ball(BoundaryPoint.parse("(1)"), "aab", 1)


def test_induced_ball_rejects_unknown_center():
    g = orbital_ball(BoundaryPoint.parse("(1)"), ABCD, 2)
    with pytest.raises(ValueError, match="'bogus' is not a vertex"):
        induced_ball(g, "bogus", 2)


def test_orbital_ball_radius_zero():
    ball = orbital_ball(BoundaryPoint.parse("(1)"), ABCD, 0)
    assert list(ball.vertices) == ["(1)"]
    assert sorted(ball.edges) == [("(1)", "(1)", "b"), ("(1)", "(1)", "c"), ("(1)", "(1)", "d")]


def test_orbital_ball_radius_one():
    ball = orbital_ball(BoundaryPoint.parse("(1)"), ABCD, 1)
    assert "0(1)" in ball.vertices
    assert ("(1)", "(1)", "d") in ball.edges
    assert ("(1)", "0(1)", "a") in ball.edges


def test_orbital_ball_stabilizes():
    two = orbital_ball(BoundaryPoint.parse("(0)"), ("a",), 2)
    assert sorted(two.vertices) == ["(0)", "1(0)"]
    assert ("(0)", "1(0)", "a") in two.edges and ("1(0)", "(0)", "a") in two.edges
    bigger = orbital_ball(BoundaryPoint.parse("(0)"), ("a",), 7)
    assert sorted(bigger.vertices) == sorted(two.vertices)


def test_induced_ball_radius_zero_is_root_loops():
    g = orbital_ball(BoundaryPoint.parse("(1)"), ABCD, 2)
    sub = induced_ball(g, "(1)", 0)
    assert list(sub.vertices) == ["(1)"]
    assert sorted(sub.edges) == [("(1)", "(1)", "b"), ("(1)", "(1)", "c"), ("(1)", "(1)", "d")]


@pytest.mark.parametrize(
    "point,gens,radius",
    [("(1)", ABCD, 9), ("01(10)", ABCD, 6), ("(0)", ("a", "d"), 7), ("1(011)", ("b", "c", "d"), 5), ("(1)", ("d", "c", "a"), 4)],
)
def test_orbital_ball_edges_are_images(point, gens, radius):
    ball = orbital_ball(BoundaryPoint.parse(point), gens, radius)
    inside = set(ball.vertices)
    expected = []
    for v in ball.vertices:
        for g in gens:
            image = str(boundary_image(g, BoundaryPoint.parse(v)))
            if image in inside:
                expected.append((v, image, g))
    assert ball.edges == expected


def _assert_same_ball(x, gens, radius):
    ball, expected = orbital_ball(x, gens, radius), bfs_orbital_ball(x, gens, radius)
    assert ball.vertices == expected.vertices, (str(x), gens, radius)
    assert ball.labels == expected.labels
    assert list(ball.images) == list(expected.images)
    for g in gens:
        assert ball.images[g].dtype == np.int64
        assert np.array_equal(ball.images[g], expected.images[g]), (str(x), gens, radius, g)


# every nonempty generating set, in letter order and reversed
_GENS_ORDERS = sorted({order for k in range(1, 5) for subset in itertools.combinations(ABCD, k)
                       for order in (subset, subset[::-1])})


@pytest.mark.parametrize(
    "point",
    ["(1)", "0(1)", "1110(1)", "(0)", "(01)", "1(011)", "0(01)", "110010(011)", "011010011101(10110)", "100000000000(00101)"],
)
def test_orbital_ball_matches_breadth_first_search(point):
    x = BoundaryPoint.parse(point)
    for gens in _GENS_ORDERS:
        for radius in range(41):
            _assert_same_ball(x, gens, radius)


@pytest.mark.parametrize("point,gens", [("(1)", "abcd"), ("0(1)", "dcba"), ("01(10)", "abcd"), ("110010(011)", "dab")])
def test_orbital_ball_matches_breadth_first_search_far_out(point, gens):
    _assert_same_ball(BoundaryPoint.parse(point), tuple(gens), 1024)


@given(
    pre=st.text("01", max_size=12),
    per=st.text("01", min_size=1, max_size=5),
    gens=st.permutations(ABCD).flatmap(lambda p: st.integers(1, 4).map(lambda k: tuple(p[:k]))),
    radius=st.integers(0, 64),
)
def test_orbital_ball_matches_breadth_first_search_property(pre, per, gens, radius):
    _assert_same_ball(BoundaryPoint(pre, per), gens, radius)


def test_orbital_ball_without_labels_is_its_root():
    ball = orbital_ball(BoundaryPoint.parse("01(10)"), (), 5)
    assert ball.vertices == ("01(10)",) and ball.images == {}
    assert ball.to_csv() == "# root=01(10)\nsource,target,label\n"


def test_ray_of_ones_is_complemented_gray_code():
    # the vertex at distance m from 1^inf is NOT gray(m): bit i of gray(m) is coordinate i
    ball = orbital_ball(BoundaryPoint.parse("(1)"), ABCD, 4095)
    assert len(ball.vertices) == 4096
    for m in range(4096):
        gray = m ^ (m >> 1)
        bits = "".join("0" if gray >> i & 1 else "1" for i in range(12))
        assert ball.vertices[m] == str(BoundaryPoint(bits, "1"))
