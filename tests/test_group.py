import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from selfsim.group import (
    GENERATORS,
    BoundaryPoint,
    act_vertex,
    boundary_image,
    is_identity,
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


def _reference_rigidity_depth(x, word, max_depth):
    """Decompose and reduce the whole section word at every level."""
    section = reduce_word(word)
    prefix = x.prefix(max_depth)
    for n in range(1, max_depth + 1):
        dec = wreath_decompose(section)
        section = reduce_word(dec.section0 if prefix[n - 1] == "0" else dec.section1)
        if is_identity(section):
            return n
    return None


def _ray(x, max_depth):
    """The prefix of x of length max_depth as a one-row 0/1 array."""
    return np.array([[int(bit) for bit in x.prefix(max_depth)]])


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
    assert act_vertex("a", zeros.prefix(3)) == "100"
    assert act_vertex("", ones.prefix(5)) == "11111"
    # b fixes 1^inf: its sections along 1s cycle through c and d without a swap
    assert act_vertex("b", ones.prefix(3)) == "111"


def test_act_boundary_prefix_truncation_consistent():
    x = BoundaryPoint.parse("01(10)")
    for word in ("a", "db", "cad"):
        for n in range(6):
            assert act_vertex(word, x.prefix(n + 1))[:n] == act_vertex(word, x.prefix(n))


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


def test_rigidity_depth_examples():
    zeros = BoundaryPoint.parse("(0)")
    ones = BoundaryPoint.parse("(1)")
    assert rigidity_depth(_ray(zeros, 8), "d") == [1]
    assert rigidity_depth(_ray(ones, 64), "d") == [0]
    assert rigidity_depth(_ray(BoundaryPoint.parse("01(10)"), 1), "") == [1]
    # a has trivial sections immediately
    for x in (zeros, ones):
        assert rigidity_depth(_ray(x, 4), "a") == [1]
    for word in ("ab", "aa", "x"):
        with pytest.raises(ValueError):
            rigidity_depth(_ray(zeros, 4), word)
    for rays in (np.zeros((3, 0)), np.zeros(4), [[0, 2]], [[0, -1]]):
        with pytest.raises(ValueError):
            rigidity_depth(rays, "b")


@given(
    st.sampled_from(["", "a", "b", "c", "d"]),
    bits,
    st.text(alphabet="01", min_size=1, max_size=6),
    st.integers(min_value=1, max_value=70),
)
@example("b", "1" * 9, "0", 70)
@example("c", "", "1", 70)
@example("d", "11", "10", 3)
def test_rigidity_depth_matches_section_walk(letter, preperiod, period, max_depth):
    x = BoundaryPoint(preperiod, period)
    assert rigidity_depth(_ray(x, max_depth), letter) == [_reference_rigidity_depth(x, letter, max_depth) or 0]


@pytest.mark.parametrize("letter", ["", "a", "b", "c", "d"])
def test_rigidity_depth_batch_matches_reference(letter):
    # every ray prefix of each width 1..8 in one array, as 0/1 integers and as booleans
    for width in range(1, 9):
        rays = (np.arange(1 << width)[:, None] >> np.arange(width)) & 1
        expected = [_reference_rigidity_depth(BoundaryPoint("".join(map(str, row)), "0"), letter, width) or 0
                    for row in rays]
        assert rigidity_depth(rays, letter).tolist() == expected
        assert rigidity_depth(rays.astype(bool), letter).tolist() == expected


def test_boundary_point_canonical():
    assert str(BoundaryPoint.parse("01(1)")) == "0(1)"
    assert str(BoundaryPoint.parse("(1010)")) == "(10)"
    assert str(BoundaryPoint.parse("1(01)")) == "(10)"
    assert BoundaryPoint.parse("0(1)") == BoundaryPoint("01", "11")
    assert BoundaryPoint.parse("(0)").prefix(18) == "0" * 18
    assert BoundaryPoint.parse("01(10)").prefix(6) == "011010"


def _reference_canonical(preperiod, period):
    """(preperiod, period) canonicalized by the least dividing period and a one-bit-at-a-time rotation."""
    n = len(period)
    per = next(period[:d] for d in range(1, n + 1) if n % d == 0 and period == period[:d] * (n // d))
    pre = preperiod
    while pre and pre[-1] == per[-1]:
        per = per[-1] + per[:-1]
        pre = pre[:-1]
    return pre, per


@given(bits, st.text(alphabet="01", min_size=1, max_size=8), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=30))
def test_boundary_point_canonical_matches_rotation_loop(head, root, copies, k):
    # the preperiod ends with k bits that continue the period backwards
    period = root * copies
    preperiod = head + (period * 31)[len(period) * 31 - k :]
    x = BoundaryPoint(preperiod, period)
    assert (x.preperiod, x.period) == _reference_canonical(preperiod, period)


def test_long_points_canonicalize():
    assert BoundaryPoint("0" * (1 << 20), "0") == BoundaryPoint("", "0")
    assert BoundaryPoint("1" + "01" * (1 << 19), "01") == BoundaryPoint("", "10")
    assert BoundaryPoint("", "01" * (1 << 19)) == BoundaryPoint("", "01")


def _reference_with_flip(x, i):
    """BoundaryPoint.with_flip as a one-character list of the prefix, flipped in place and joined."""
    pre_len = max(len(x.preperiod), i + 1)
    chars = list(x.prefix(pre_len))
    chars[i] = "1" if chars[i] == "0" else "0"
    shift = (pre_len - len(x.preperiod)) % len(x.period)
    return BoundaryPoint("".join(chars), x.period[shift:] + x.period[:shift])


@given(bits, st.text(alphabet="01", min_size=1, max_size=6), st.integers(min_value=0, max_value=24))
@example("01", "1", 3)
@example("", "10", 5)
def test_with_flips_matches_joined_list(preperiod, period, i):
    x = BoundaryPoint(preperiod, period)
    assert x.with_flip(i) == _reference_with_flip(x, i)


def test_bad_bits_name_the_first_bad_character():
    with pytest.raises(ValueError, match=r"^bad bit 'x' in preperiod '01x2'$"):
        BoundaryPoint.parse("01x2(1)")
    with pytest.raises(ValueError, match=r"^bad bit '2' in period '12\u00e9'$"):
        BoundaryPoint.parse("(12\u00e9)")
    with pytest.raises(ValueError, match=r"^bad bit '\u00e9' in vertex '0\u00e91'$"):
        act_vertex("a", "0\u00e91")


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
            assert image.prefix(n) == act_vertex(word, x.prefix(n))


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
    assert act_vertex("b", x.prefix(5000)) == "1" * 5000
    y = BoundaryPoint("1" * 4000, "0")
    image = boundary_image("dcb", y)
    assert act_vertex("dcb", y.prefix(5000)) == image.prefix(5000)
