import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from selfsim import group
from selfsim.group import (
    GENERATORS,
    BoundaryPoint,
    _element_key,
    boundary_image,
    is_identity,
    reduce_word,
    rigidity_depth,
    wreath_decompose,
)
from selfsim.hecke import word_perm
from suites import fold_decompose, reference_is_identity

words = st.text(alphabet="abcd", max_size=12)
bits = st.text(alphabet="01", max_size=10)


def _reference_boundary_image(word, x):
    """Section walk down the ray with cycle detection on the periodic tail."""

    def step(section, bit):
        swap, section0, section1 = wreath_decompose(section)
        out = ("1" if bit == "0" else "0") if swap else bit
        return out, reduce_word(section0 if bit == "0" else section1)

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
        swap, section0, section1 = wreath_decompose(section)
        section = reduce_word(section0 if prefix[n - 1] == "0" else section1)
        if is_identity(section):
            return n
    return None


def _ray(x, max_depth):
    """The prefix of x of length max_depth as a one-row bool array."""
    return np.array([[bit == "1" for bit in x.prefix(max_depth)]])


def test_wreath_decompose_generators():
    expected = {"a": (True, "", ""), "b": (False, "a", "c"), "c": (False, "a", "d"), "d": (False, "", "b")}
    for letter, triple in expected.items():
        assert wreath_decompose(letter) == triple


def test_wreath_decompose_product():
    swap, section0, section1 = wreath_decompose("ad")
    assert swap
    assert reduce_word(section0) == ""
    assert reduce_word(section1) == "b"


def test_wreath_decompose_matches_fold():
    rng = np.random.default_rng(19)
    for _ in range(2000):
        word = "".join(rng.choice(list("abcd"), int(rng.integers(0, 65))))
        assert wreath_decompose(word) == fold_decompose(word), word


def test_is_identity_long_words():
    # ab has order 16; the decomposition appends each letter's sections instead of rebuilding both strings
    assert is_identity("ab" * 100000) is True
    assert is_identity("ab" * 100001) is False


def test_is_identity_reads_the_root_swap_first(monkeypatch):
    key, calls = group._element_key, []

    def counted(word):
        calls.append(word)
        return key(word)

    monkeypatch.setattr(group, "_element_key", counted)
    # an odd number of a letters swaps the root, so no section is keyed
    assert is_identity("ab" * 100001) is False
    assert calls == []
    assert is_identity("adadadad") is True
    assert calls


def test_act_vertex_examples():
    # vertex v of level n is row int(v, 2) of the level-n permutation, its first bit the highest
    assert word_perm("a", 2)[0b01] == 0b11
    assert word_perm("", 5)[0b01101] == 0b01101
    assert word_perm("d", 3)[0b101] == 0b100


def test_act_vertex_level_preserved_and_bijective():
    for word in ("a", "b", "ad", "abcd", "dacab"):
        for n in range(5):
            assert sorted(word_perm(word, n).tolist()) == list(range(1 << n))


def test_act_boundary_prefix_examples():
    # the level-n prefixes of (0) and (1) are rows 0 and 2^n - 1
    assert word_perm("a", 3)[0b000] == 0b100
    assert word_perm("", 5)[0b11111] == 0b11111
    # b fixes 1^inf: its sections along 1s cycle through c and d without a swap
    assert word_perm("b", 3)[0b111] == 0b111


def test_act_boundary_prefix_truncation_consistent():
    # the image of a level-(n + 1) vertex, cut to its first n bits, is the image of its cut
    for word in ("a", "db", "cad"):
        for n in range(6):
            perm, parent = word_perm(word, n + 1), word_perm(word, n)
            for j in range(1 << (n + 1)):
                assert perm[j] >> 1 == parent[j >> 1], (word, n, j)


def test_boundary_image_examples():
    ones = BoundaryPoint.parse("(1)")
    assert str(boundary_image("b", ones)) == "(1)"
    assert str(boundary_image("a", ones)) == "0(1)"
    moved = boundary_image("c", BoundaryPoint.parse("01(1)"))
    assert str(moved) == "00(1)"


def test_element_key_decides_equality_like_the_reference():
    rng = np.random.default_rng(1)
    equal = 0
    for _ in range(20000):
        u, v = ("".join(rng.choice(list("abcd"), int(rng.integers(0, 14)))) for _ in range(2))
        same = reference_is_identity(u + v[::-1])  # involutive letters make the inverse of v its reversal
        assert (_element_key(u) == _element_key(v)) == same, (u, v)
        equal += same
    assert equal > 0


@pytest.mark.parametrize("word", ["adadadad", "adacac" * 4])
def test_element_key_of_every_split_of_a_relator(word):
    assert is_identity(word)
    for i in range(len(word) + 1):
        assert _element_key(word[:i]) == _element_key(word[i:][::-1]), i


def test_element_key_reads_the_nucleus():
    # (ad)^4 = 1, so adadada is d
    assert _element_key("adadada") == "d"
    assert _element_key("adadadad") == ""


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
    # a has trivial sections immediately
    for x in (zeros, ones):
        assert rigidity_depth(_ray(x, 4), "a") == [1]
    # the empty word is not a generator letter
    for word in ("", "ab", "aa", "x"):
        with pytest.raises(ValueError):
            rigidity_depth(_ray(zeros, 4), word)
    # rays are 2-D bool arrays with at least one level: 0/1 integers are refused as well
    for rays in (np.zeros((3, 0), bool), np.zeros(4, bool), np.array([[0, 1]]), [[0, 1]], [[0, 2]], [[0, -1]]):
        with pytest.raises(ValueError):
            rigidity_depth(rays, "b")


@given(
    st.sampled_from(GENERATORS),
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
    # every ray prefix of each width 1..8 in one bool array
    for width in range(1, 9):
        rays = (np.arange(1 << width)[:, None] >> np.arange(width)) & 1
        if not letter:  # the empty word is not a generator letter
            with pytest.raises(ValueError):
                rigidity_depth(rays.astype(bool), letter)
            continue
        expected = [_reference_rigidity_depth(BoundaryPoint("".join(map(str, row)), "0"), letter, width) or 0
                    for row in rays]
        assert rigidity_depth(rays.astype(bool), letter).tolist() == expected
        with pytest.raises(ValueError):  # the same prefixes as 0/1 integers
            rigidity_depth(rays, letter)


@given(
    st.sampled_from(GENERATORS),
    st.integers(min_value=1, max_value=70),
    st.lists(st.text(alphabet="01", min_size=70, max_size=70), min_size=1, max_size=6),
    st.sampled_from([1, 7, group._ROW_BLOCK + 3]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example("b", 1, ["0"], group._ROW_BLOCK + 3, 0)
@example("d", 5, ["0" * 70], 7, 1)
def test_rigidity_depth_matches_section_walk_on_samples(letter, width, prefixes, rows, seed):
    # a few distinct rows and a row of ones (no 0), drawn into a sample that may span more than one row block
    distinct = [p[:width] for p in prefixes] + ["1" * width]
    expected = np.array([_reference_rigidity_depth(BoundaryPoint(p, "0"), letter, width) or 0 for p in distinct])
    table = np.array([[bit == "1" for bit in p] for p in distinct])
    pick = np.random.default_rng(seed).integers(len(distinct), size=rows)
    depth = rigidity_depth(table[pick], letter)
    assert depth.dtype == np.int32
    assert depth.tolist() == expected[pick].tolist()


def test_rigidity_depth_reads_a_wide_row_at_once():
    # one row of 2^20 ones has no 0, so no section dies; a walk over its columns takes seconds
    for letter in "bcd":
        start = time.perf_counter()
        assert rigidity_depth(np.ones((1, 1 << 20), bool), letter).tolist() == [0]
        assert time.perf_counter() - start < 1.0


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


@given(words)
def test_word_times_reverse_is_identity(word):
    assert is_identity(word + word[::-1])


@given(words)
def test_reduce_word_idempotent_and_faithful(word):
    reduced = reduce_word(word)
    assert reduce_word(reduced) == reduced
    assert np.array_equal(word_perm(word, 4), word_perm(reduced, 4))
    assert is_identity(word) == is_identity(reduced)


@given(words.filter(lambda w: len(reduce_word(w)) >= 2))
def test_sections_contract(word):
    reduced = reduce_word(word)
    _, section0, section1 = wreath_decompose(reduced)
    bound = (len(reduced) + 1) // 2
    assert len(reduce_word(section0)) <= bound
    assert len(reduce_word(section1)) <= bound


def test_boundary_image_matches_prefix_action():
    x = BoundaryPoint.parse("011(01)")
    for word in ("a", "b", "cd", "abab", "dcba"):
        image = boundary_image(word, x)
        for n in range(1, 12):
            assert int(image.prefix(n), 2) == word_perm(word, n)[int(x.prefix(n), 2)], (word, n)


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
    for word, x, image in (
        ("b", BoundaryPoint("", "1"), BoundaryPoint("", "1")),
        # c loops at the flip position 5000, and b moves at 4999
        ("c", BoundaryPoint("1" * 4999 + "0", "1"), BoundaryPoint("1" * 4999 + "0", "1")),
        ("b", BoundaryPoint("1" * 4998 + "00", "0"), BoundaryPoint("1" * 4998 + "01", "0")),
    ):
        assert boundary_image(word, x) == image == _reference_boundary_image(word, x), word
    y = BoundaryPoint("1" * 4000, "0")
    assert boundary_image("dcb", y) == _reference_boundary_image("dcb", y)
