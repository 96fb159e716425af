"""Block decomposition and the statistic-reversing involution."""

from dataclasses import dataclass
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulab.bijection import _mirror, mirror, mirror_pairs, pair_table
from eulab.errors import (
    CapExceededError,
    InvalidPermutationError,
    NotPrefixDecreasingError,
    ValueOutOfRangeError,
)
from eulab.perms import (
    Perm,
    PermClass,
    _is_prefix_decreasing,
    check_word,
    enumerate_class,
    is_prefix_decreasing,
    stats,
)

# -- the oracle: the involution built through two block decompositions ------


@dataclass(frozen=True)
class BlockDecomposition:
    """Word sectioned after every right-to-left minimum."""

    blocks: tuple  # tuple[Perm, ...]

    def finals(self) -> tuple:
        return tuple(b[-1] for b in self.blocks)

    def isolated(self) -> tuple:
        """Values sitting in singleton blocks."""
        return tuple(b[0] for b in self.blocks if len(b) == 1)

    def word(self) -> Perm:
        return tuple(v for b in self.blocks for v in b)


def decompose(word: Sequence[int]) -> BlockDecomposition:
    """Cut after each right-to-left minimum.  Letters need only be
    distinct, so the involution can section its intermediate words.

    >>> decompose((5, 4, 1, 2, 7, 3, 6, 10, 9, 8)).blocks
    ((5, 4, 1), (2,), (7, 3), (6,), (10, 9, 8))
    """
    w = tuple(word)
    if len(set(w)) != len(w):
        raise InvalidPermutationError(f"letters must be distinct: {w}")
    blocks = []
    start = 0
    # position i ends a block when w[i] is smaller than everything after it
    suffix_min = [0] * (len(w) + 1)
    suffix_min[len(w)] = max(w, default=0) + 1
    for i in range(len(w) - 1, -1, -1):
        suffix_min[i] = min(w[i], suffix_min[i + 1])
    for i, v in enumerate(w):
        if v < suffix_min[i + 1]:
            blocks.append(w[start : i + 1])
            start = i + 1
    return BlockDecomposition(tuple(blocks))


def mirror_by_blocks(word: Sequence[int]) -> Perm:
    """The involution.  Requires the prefix ending at 1 to decrease.

    Reverse the non-final letters of every non-singleton block after the
    one holding 1; pull out the isolated (singleton-block) minima except 1
    and the prefix letters before 1; stack the former in decreasing order
    directly before 1; re-seed the latter as new singleton blocks at the
    positions their values force.
    """
    w = check_word(word)
    if not w:
        return w
    if not _is_prefix_decreasing(w):
        raise NotPrefixDecreasingError(f"prefix before the value 1 must decrease: {w}")
    blocks = decompose(w).blocks
    # the first block is the decreasing prefix ending at 1
    flipped = [blocks[0]]
    for b in blocks[1:]:
        flipped.append(b if len(b) == 1 else b[-2::-1] + (b[-1],))
    pulled_isolated = {b[0] for b in blocks[1:] if len(b) == 1}
    pulled_prefix = set(blocks[0][:-1])  # the left-to-right minima above 1
    kept = tuple(
        v for b in flipped for v in b if v not in pulled_isolated and v not in pulled_prefix
    )
    # kept starts at 1; stack the isolated values decreasingly before it
    work = tuple(sorted(pulled_isolated, reverse=True)) + kept
    out_blocks = list(decompose(work).blocks)
    for v in sorted(pulled_prefix):
        idx = sum(1 for b in out_blocks if b[-1] < v)
        out_blocks.insert(idx, (v,))
    return tuple(x for b in out_blocks for x in b)


def test_decompose_worked_example():
    d = decompose((5, 4, 1, 2, 7, 3, 6, 10, 9, 8))
    assert d.blocks == ((5, 4, 1), (2,), (7, 3), (6,), (10, 9, 8))
    assert d.finals() == (1, 2, 3, 6, 8)
    assert d.isolated() == (2, 6)
    assert d.word() == (5, 4, 1, 2, 7, 3, 6, 10, 9, 8)


def test_decompose_monotone_words():
    assert decompose((1, 2, 3, 4)).blocks == ((1,), (2,), (3,), (4,))
    assert decompose((1, 2, 3, 4)).isolated() == (1, 2, 3, 4)
    assert decompose((4, 3, 2, 1)).blocks == ((4, 3, 2, 1),)


def test_decompose_accepts_sparse_letters():
    # letters need not be dense; only distinct
    assert decompose((6, 2, 9, 7)).blocks == ((6, 2), (9, 7))
    with pytest.raises(InvalidPermutationError):
        decompose((1, 2, 1))


def test_decompose_block_finals_increase():
    for p in enumerate_class(PermClass.SYM, 6):
        finals = decompose(p).finals()
        assert list(finals) == sorted(finals)


@pytest.mark.parametrize("n", range(0, 9))
def test_mirror_matches_the_block_oracle(n):
    for w in enumerate_class(PermClass.PRW, n):
        assert mirror(w) == mirror_by_blocks(w), w


def test_mirror_worked_example():
    image = mirror((5, 4, 1, 2, 7, 3, 6, 10, 9, 8))
    assert image == (6, 2, 1, 7, 3, 4, 5, 9, 10, 8)
    assert mirror(image) == (5, 4, 1, 2, 7, 3, 6, 10, 9, 8)


def test_mirror_bounds_the_tail_scan_by_the_whole_word():
    # 3 follows 1 and exceeds the tail's length, 1: a minima scan of the
    # tail bounded by that length would miss it
    assert mirror((2, 1, 3)) == (3, 1, 2)


def test_mirror_requires_decreasing_prefix():
    with pytest.raises(NotPrefixDecreasingError):
        mirror((2, 3, 1))
    with pytest.raises(InvalidPermutationError):
        mirror((2, 2, 1))
    # 2.0 == 2, but a float letter would leak into the image
    with pytest.raises(InvalidPermutationError):
        mirror((2.0, 1, 3))


@pytest.mark.parametrize(
    "word, error, message",
    [
        ((2, 3, 1), NotPrefixDecreasingError,
         "prefix before the value 1 must decrease: (2, 3, 1)"),
        ((2, 2, 1), InvalidPermutationError, "not a permutation of 1..3: (2, 2, 1)"),
        ((2.0, 1, 3), InvalidPermutationError, "not a permutation of 1..3: (2.0, 1, 3)"),
        ((True,), InvalidPermutationError, "not a permutation of 1..1: (True,)"),
    ],
)
def test_mirror_rejects_bad_words(word, error, message):
    with pytest.raises(error) as info:
        mirror(word)
    assert info.value.message == message


@pytest.mark.parametrize("n", range(1, 9))
def test_mirror_kernel_matches_the_public_mirror(n):
    for w in enumerate_class(PermClass.PRW, n):
        assert _mirror(w) == mirror(w), w


def test_mirror_four_letter_table():
    got = {w: img for w, img in pair_table(4)}
    want = {
        (1, 2, 3, 4): (4, 3, 2, 1),
        (1, 2, 4, 3): (2, 1, 4, 3),
        (1, 3, 2, 4): (4, 1, 3, 2),
        (1, 3, 4, 2): (1, 4, 3, 2),
        (1, 4, 2, 3): (3, 1, 4, 2),
        (2, 1, 3, 4): (4, 3, 1, 2),
        (3, 1, 2, 4): (4, 2, 1, 3),
        (4, 1, 2, 3): (3, 2, 1, 4),
    }
    for w, img in want.items():
        assert got[w] == img, w
        assert got[img] == w, img
    assert len(got) == 16


def test_mirror_singleton():
    assert mirror((1,)) == (1,)


@pytest.mark.parametrize("n", range(1, 8))
def test_mirror_is_involution(n):
    for w in enumerate_class(PermClass.PRW, n):
        image = mirror(w)
        assert is_prefix_decreasing(image), (w, image)
        assert mirror(image) == w


@pytest.mark.parametrize("n", range(1, 8))
def test_mirror_swaps_slope_statistics(n):
    for w in enumerate_class(PermClass.PRW, n):
        s, t = stats(w), stats(mirror(w))
        assert (s.des, s.asc) == (t.asc, t.des)
        assert (s.double_desc, s.double_asc) == (t.double_asc, t.double_desc)


@pytest.mark.parametrize("n", range(1, 8))
def test_mirror_preserves_minima_total(n):
    for w in enumerate_class(PermClass.PRW, n):
        s, t = stats(w), stats(mirror(w))
        assert s.lrmin + s.rlmin == t.lrmin + t.rlmin


# random decreasing-prefix words past the exhaustive range: a random word
# with the letters before 1 sorted downwards
long_prefix_decreasing = (
    st.integers(min_value=12, max_value=60)
    .flatmap(lambda n: st.permutations(range(1, n + 1)))
    .map(lambda w: tuple(sorted(w[: w.index(1)], reverse=True)) + tuple(w[w.index(1) :]))
)


@settings(max_examples=100, deadline=None)
@given(long_prefix_decreasing)
def test_mirror_properties_on_long_words(w):
    image = mirror(w)
    assert image == mirror_by_blocks(w)
    assert is_prefix_decreasing(image)
    assert mirror(image) == w
    s, t = stats(w), stats(image)
    assert (s.des, s.asc) == (t.asc, t.des)
    assert (s.double_desc, s.double_asc) == (t.double_asc, t.double_desc)
    assert s.lrmin + s.rlmin == t.lrmin + t.rlmin


def test_mirror_equidistributes_joint_statistics():
    # the map certifies that (des, asc, weight) and (asc, des, weight) have
    # the same distribution over the class
    for n in range(1, 7):
        left = sorted(
            (stats(w).des, stats(w).asc, stats(w).weight)
            for w in enumerate_class(PermClass.PRW, n)
        )
        right = sorted(
            (stats(w).asc, stats(w).des, stats(w).weight)
            for w in enumerate_class(PermClass.PRW, n)
        )
        assert left == right


def test_pair_table_order_and_fixed_points():
    table = pair_table(3)
    assert [w for w, _ in table] == sorted(w for w, _ in table)
    fixed = [w for w, img in table if w == img]
    assert fixed == [(1, 3, 2)]


def test_mirror_pairs_stream_the_table():
    pairs = mirror_pairs(4)
    assert iter(pairs) is pairs  # an iterator, not a list
    assert list(pairs) == pair_table(4)
    assert pair_table(0) == [((), ())]


def test_mirror_pairs_check_the_cap_and_size_on_the_call(monkeypatch):
    monkeypatch.setenv("EULAB_MAX_N", "5")
    with pytest.raises(CapExceededError):
        mirror_pairs(6)
    with pytest.raises(ValueOutOfRangeError):
        mirror_pairs(-1)
