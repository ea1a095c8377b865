import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from selfsim.group import (
    GENERATORS,
    BoundaryPoint,
    act_boundary_prefix,
    act_vertex,
    activity_count,
    boundary_image,
    is_identity,
    is_subexp_bounded_sample,
    reduce_word,
    rigidity_depth,
    wreath_decompose,
)

words = st.text(alphabet="abcd", max_size=12)
bits = st.text(alphabet="01", max_size=10)


def _reference_boundary_image(word, x):
    """Section walk down the ray with cycle detection on the periodic tail."""

    def step(section, bit):
        dec = wreath_decompose(section)
        out = ("1" if bit == "0" else "0") if dec.swap else bit
        return out, reduce_word(dec.section0 if bit == "0" else dec.section1)

    section = reduce_word(word)
    out_bits = []
    for bit in x.preperiod:
        ob, section = step(section, bit)
        out_bits.append(ob)
    seen, tail, phase = {}, [], 0
    while (section, phase) not in seen:
        seen[(section, phase)] = len(tail)
        ob, section = step(section, x.period[phase])
        tail.append(ob)
        phase = (phase + 1) % len(x.period)
    start = seen[(section, phase)]
    return BoundaryPoint("".join(out_bits) + "".join(tail[:start]), "".join(tail[start:]))


def test_wreath_decompose_generators():
    expected = {"a": (True, "", ""), "b": (False, "a", "c"), "c": (False, "a", "d"), "d": (False, "", "b")}
    for letter, (swap, s0, s1) in expected.items():
        dec = wreath_decompose(letter)
        assert (dec.swap, dec.section0, dec.section1) == (swap, s0, s1)


def test_wreath_decompose_product():
    dec = wreath_decompose("ad")
    assert dec.swap
    assert reduce_word(dec.section0) == ""
    assert reduce_word(dec.section1) == "b"


def test_act_vertex_examples():
    assert act_vertex("a", "01") == "11"
    assert act_vertex("", "01101") == "01101"
    assert act_vertex("d", "101") == "100"


def test_act_vertex_level_preserved_and_bijective():
    for word in ("a", "b", "ad", "abcd", "dacab"):
        for n in range(5):
            images = {act_vertex(word, format(i, f"0{n}b") if n else "") for i in range(1 << n)}
            assert len(images) == 1 << n


def test_act_boundary_prefix_examples():
    zeros = BoundaryPoint.parse("(0)")
    ones = BoundaryPoint.parse("(1)")
    assert act_boundary_prefix("a", zeros, 3) == "100"
    assert act_boundary_prefix("", ones, 5) == "11111"
    # b fixes 1^inf: its sections along 1s cycle through c and d without a swap
    assert act_boundary_prefix("b", ones, 3) == "111"


def test_act_boundary_prefix_truncation_consistent():
    x = BoundaryPoint.parse("01(10)")
    for word in ("a", "db", "cad"):
        for n in range(6):
            assert act_boundary_prefix(word, x, n + 1)[:n] == act_boundary_prefix(word, x, n)


def test_boundary_image_examples():
    ones = BoundaryPoint.parse("(1)")
    assert str(boundary_image("b", ones)) == "(1)"
    assert str(boundary_image("a", ones)) == "0(1)"
    moved = boundary_image("c", BoundaryPoint.parse("01(1)"))
    assert str(moved) == "00(1)"


def test_is_identity_relators():
    assert is_identity("")
    for g in GENERATORS:
        assert is_identity(g + g)
    assert is_identity("bcd")
    assert is_identity("adadadad")
    assert not is_identity("ab")
    assert not is_identity("ad")


def test_is_identity_rewritten_relators():
    # images of (ad)^4 and (adacac)^4 under the substitution
    # a -> aca, b -> d, c -> b, d -> c stay trivial
    tau = {"a": "aca", "b": "d", "c": "b", "d": "c"}
    word = "adadadad"
    other = "adacac" * 4
    for _ in range(3):
        word = "".join(tau[ch] for ch in word)
        assert is_identity(word)
    assert is_identity(other)
    other = "".join(tau[ch] for ch in other)
    assert is_identity(other)


def test_klein_table():
    for left, right, product in (("b", "c", "d"), ("b", "d", "c"), ("c", "d", "b")):
        assert is_identity(left + right + product)
        assert is_identity(right + left + product)


def test_activity_count_examples():
    assert activity_count("a", 1) == 0
    assert activity_count("", 4) == 0
    assert activity_count("b", 2) == 2
    assert [activity_count("b", n) for n in range(9)] == [1, 2, 2, 1, 2, 2, 1, 2, 2]


@given(words, st.integers(min_value=0, max_value=5))
def test_activity_subadditive(word, n):
    total = sum(activity_count(ch, n) for ch in word)
    assert activity_count(word, n) <= total
    assert activity_count("", n) == 0


def test_subexp_bounded_examples():
    ok, trace = is_subexp_bounded_sample("b", 0.5, 20)
    assert ok
    assert all(t <= 2 * 0.5**n for n, t in enumerate(trace))
    ok, trace = is_subexp_bounded_sample("", 0.7, 10)
    assert ok and all(t == 0.0 for t in trace)
    ok, _ = is_subexp_bounded_sample("a", 0.9, 20)
    assert ok


def test_rigidity_depth_examples():
    zeros = BoundaryPoint.parse("(0)")
    ones = BoundaryPoint.parse("(1)")
    assert rigidity_depth(zeros, "d", 8) == 1
    assert rigidity_depth(ones, "d", 64) is None
    assert rigidity_depth(BoundaryPoint.parse("01(10)"), "", 1) == 1
    # a has trivial sections immediately
    for x in (zeros, ones):
        assert rigidity_depth(x, "a", 4) == 1


def test_boundary_point_canonical():
    assert str(BoundaryPoint.parse("01(1)")) == "0(1)"
    assert str(BoundaryPoint.parse("(1010)")) == "(10)"
    assert str(BoundaryPoint.parse("1(01)")) == "(10)"
    assert BoundaryPoint.parse("0(1)") == BoundaryPoint("01", "11")
    assert BoundaryPoint.parse("(0)").bit_at(17) == "0"
    assert BoundaryPoint.parse("01(10)").prefix(6) == "011010"


@given(words)
def test_word_times_reverse_is_identity(word):
    assert is_identity(word + word[::-1])


@given(words)
def test_reduce_word_idempotent_and_faithful(word):
    reduced = reduce_word(word)
    assert reduce_word(reduced) == reduced
    assert act_vertex(word, "0110") == act_vertex(reduced, "0110")
    assert is_identity(word) == is_identity(reduced)


@given(words.filter(lambda w: len(reduce_word(w)) >= 2))
def test_sections_contract(word):
    reduced = reduce_word(word)
    dec = wreath_decompose(reduced)
    bound = (len(reduced) + 1) // 2
    assert len(reduce_word(dec.section0)) <= bound
    assert len(reduce_word(dec.section1)) <= bound


def test_boundary_image_matches_prefix_action():
    x = BoundaryPoint.parse("011(01)")
    for word in ("a", "b", "cd", "abab", "dcba"):
        image = boundary_image(word, x)
        for n in range(12):
            assert image.prefix(n) == act_boundary_prefix(word, x, n)


@given(
    st.text(alphabet="abcd", max_size=8),
    bits,
    st.one_of(st.sampled_from(["0", "1"]), st.text(alphabet="01", min_size=1, max_size=6)),
)
@example("bcbd", "", "1")
@example("dbab", "0110", "0")
@example("ab", "", "0")
def test_boundary_image_matches_section_walk(word, preperiod, period):
    x = BoundaryPoint(preperiod, period)
    assert boundary_image(word, x) == _reference_boundary_image(word, x)


def test_action_deep_in_the_tree():
    # the walk is iterative: one letter reads thousands of bits without recursion
    assert act_vertex("b", "1" * 5000) == "1" * 5000
    assert act_vertex("c", "1" * 4999 + "0") == "1" * 4999 + "0"
    assert act_vertex("b", "1" * 4998 + "00") == "1" * 4998 + "01"
    x = BoundaryPoint.parse("(1)")
    assert act_boundary_prefix("b", x, 5000) == "1" * 5000
    y = BoundaryPoint("1" * 4000, "0")
    image = boundary_image("dcb", y)
    assert act_boundary_prefix("dcb", y, 5000) == image.prefix(5000)
