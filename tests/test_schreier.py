import pytest

from selfsim import schreier

from selfsim.group import BoundaryPoint, boundary_image
from selfsim.schreier import induced_ball, orbital_ball

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


@pytest.mark.parametrize("point,calls", [("(1)", 2564), ("01(10)", 5124)])
def test_orbital_ball_computes_each_edge_once(point, calls, monkeypatch):
    # every label is an involution: a call g(y) = z already gives g(z) = y
    image = schreier.boundary_image
    known = set()
    made = []

    def once(g, y):
        assert (g, y) not in known, f"{g}({y}) is known from an earlier call"
        z = image(g, y)
        known.update({(g, y), (g, z)})
        made.append(g)
        return z

    monkeypatch.setattr(schreier, "boundary_image", once)
    orbital_ball(BoundaryPoint.parse(point), ABCD, 1024)
    assert len(made) == calls
