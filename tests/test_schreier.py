import pytest
from hypothesis import given
from hypothesis import strategies as st

from selfsim.group import BoundaryPoint, act_vertex, boundary_image
from selfsim.schreier import (
    MarkedGraph,
    balls_isomorphic,
    induced_ball,
    level_graph,
    local_iso_probe,
    orbital_ball,
)

ABCD = ("a", "b", "c", "d")


def test_level_graph_one():
    g = level_graph(1, ABCD)
    assert sorted(g.vertices) == ["0", "1"]
    assert ("0", "1", "a") in g.edges and ("1", "0", "a") in g.edges
    for letter in "bcd":
        assert ("0", "0", letter) in g.edges and ("1", "1", letter) in g.edges


def test_level_graph_trivial_cases():
    g = level_graph(0, ("a",))
    assert list(g.vertices) == [""] and list(g.edges) == [("", "", "a")]
    g = level_graph(2, ("d",))
    assert all(src == dst for src, dst, _ in g.edges)


def test_level_graph_permutation_structure():
    for n in range(6):
        g = level_graph(n, ABCD)
        for letter in "abcd":
            out = [e for e in g.edges if e[2] == letter]
            assert len(out) == 1 << n
            assert len({src for src, _, _ in out}) == 1 << n
            assert len({dst for _, dst, _ in out}) == 1 << n


def test_level_graph_projection_consistency():
    for n in range(6):
        coarse = set(level_graph(n, ABCD).edges)
        for src, dst, letter in level_graph(n + 1, ABCD).edges:
            assert (src[:-1], dst[:-1], letter) in coarse


def test_csv_roundtrip():
    g = level_graph(3, ("a", "d"))
    text = g.to_csv()
    assert text.startswith("# root=000\n")
    back = MarkedGraph.from_csv(text)
    assert back.root == g.root
    assert sorted(back.vertices) == sorted(g.vertices)
    assert sorted(back.edges) == sorted(g.edges)
    assert back.to_csv() == text


def test_duplicate_label_edges_rejected():
    with pytest.raises(ValueError):
        MarkedGraph("x", ("x", "y"), (("x", "x", "a"), ("x", "y", "a")), ("a",))


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
    g = level_graph(2, ABCD)
    sub = induced_ball(g, "00", 0)
    assert list(sub.vertices) == ["00"]
    assert all(src == dst == "00" for src, dst, _ in sub.edges)


def test_balls_isomorphic_examples():
    g = level_graph(2, ABCD)
    assert balls_isomorphic(g, g)
    one = orbital_ball(BoundaryPoint.parse("(1)"), ("a",), 1)
    zero = orbital_ball(BoundaryPoint.parse("(0)"), ("a",), 1)
    assert balls_isomorphic(one, zero)
    assert not balls_isomorphic(level_graph(2, ("d",)), level_graph(1, ("d",)))


def test_balls_isomorphic_is_equivalence():
    samples = [
        orbital_ball(BoundaryPoint.parse("(1)"), ABCD, r) for r in (2, 3, 4)
    ] + [
        orbital_ball(BoundaryPoint.parse("0(1)"), ABCD, r) for r in (2, 3)
    ] + [level_graph(2, ABCD), level_graph(3, ABCD)]
    for g in samples:
        assert balls_isomorphic(g, g)
    for g1 in samples:
        for g2 in samples:
            assert balls_isomorphic(g1, g2) == balls_isomorphic(g2, g1)
    for g1 in samples:
        for g2 in samples:
            for g3 in samples:
                if balls_isomorphic(g1, g2) and balls_isomorphic(g2, g3):
                    assert balls_isomorphic(g1, g3)


def test_balls_isomorphic_rejects_disconnected():
    # d fixes every level-2 vertex: four isolated loops, unreachable from the root
    g = level_graph(2, ("d",))
    with pytest.raises(ValueError):
        balls_isomorphic(g, g)


@pytest.mark.parametrize(
    "point,gens,radius",
    [("(1)", ABCD, 9), ("01(10)", ABCD, 6), ("(0)", ("ab", "c"), 7), ("1(011)", ("ab", "c"), 5), ("(1)", ("dab", "ca"), 4)],
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


def test_balls_isomorphic_label_mismatch():
    with pytest.raises(ValueError):
        balls_isomorphic(level_graph(1, ("a",)), level_graph(1, ("a", "d")))


def test_local_iso_probe_self():
    x = BoundaryPoint.parse("(1)")
    assert local_iso_probe(x, x, 2, 2) == "(1)"


def test_local_iso_probe_same_orbit():
    x = BoundaryPoint.parse("(1)")
    y = BoundaryPoint.parse("0(1)")
    found = local_iso_probe(x, y, 2, 8)
    assert found is not None


def test_local_iso_probe_across_orbits():
    # 1^inf is the unique point fixed by b, c and d: any isomorphic ball
    # elsewhere would need a vertex carrying all three self-loops, and on the
    # 0^inf orbit the three loops never meet at one vertex.  The probe rightly
    # comes back empty at any radius; this freezes the honest outcome.
    found = local_iso_probe(BoundaryPoint.parse("(1)"), BoundaryPoint.parse("(0)"), 3, 64)
    assert found is None


def test_local_iso_probe_across_orbits_positive():
    # a center three steps away from the all-ones point has a radius-2 ball
    # free of the unique triple-loop vertex, so it recurs in the other orbit
    found = local_iso_probe(BoundaryPoint.parse("000(1)"), BoundaryPoint.parse("(0)"), 2, 32)
    assert found is not None


@given(st.integers(min_value=0, max_value=4), st.sets(st.sampled_from("abcd"), min_size=1))
def test_level_graph_edges_match_action(n, letters):
    gens = tuple(sorted(letters))
    g = level_graph(n, gens)
    for src, dst, letter in g.edges:
        assert act_vertex(letter, src) == dst
