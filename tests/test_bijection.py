"""Block decomposition and the statistic-reversing involution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulab.bijection import BlockDecomposition, decompose, mirror, pair_table
from eulab.errors import InvalidPermutationError, NotPrefixDecreasingError
from eulab.perms import PermClass, enumerate_class, is_prefix_decreasing, stats


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


def test_mirror_worked_example():
    image = mirror((5, 4, 1, 2, 7, 3, 6, 10, 9, 8))
    assert image == (6, 2, 1, 7, 3, 4, 5, 9, 10, 8)
    assert mirror(image) == (5, 4, 1, 2, 7, 3, 6, 10, 9, 8)


def test_mirror_requires_decreasing_prefix():
    with pytest.raises(NotPrefixDecreasingError):
        mirror((2, 3, 1))
    with pytest.raises(InvalidPermutationError):
        mirror((2, 2, 1))
    # 2.0 == 2, but a float letter would leak into the image
    with pytest.raises(InvalidPermutationError):
        mirror((2.0, 1, 3))


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
    st.integers(min_value=12, max_value=40)
    .flatmap(lambda n: st.permutations(range(1, n + 1)))
    .map(lambda w: tuple(sorted(w[: w.index(1)], reverse=True)) + tuple(w[w.index(1) :]))
)


@settings(max_examples=100, deadline=None)
@given(long_prefix_decreasing)
def test_mirror_properties_on_long_words(w):
    image = mirror(w)
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
