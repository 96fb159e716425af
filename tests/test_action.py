"""Letter toggles: interval swap, minima hop, and their orbits."""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulab.action import (
    Factorization,
    _images,
    Orbit,
    interval_swap,
    minima_hop,
    orbit,
    orbit_dot,
    toggle,
    toggle_many,
    x_factorization,
)
from eulab.errors import CapExceededError, InvalidPermutationError, ValueOutOfRangeError
from eulab.perms import (
    DOUBLE_ASC,
    DOUBLE_DESC,
    classify,
    enumerate_class,
    format_perm,
    is_prefix_decreasing,
    lrmin_values,
    PermClass,
    rlmin_values,
    stats,
)

# the dotted-trajectory example word used throughout this module
BIG = (12, 7, 1, 3, 13, 15, 2, 4, 9, 16, 14, 6, 11, 8, 5, 10)


def test_factorization_worked_example():
    f = x_factorization((2, 1, 7, 6, 8, 5, 4, 3, 9), 5)
    assert f == Factorization(
        prefix=(2, 1), left_high=(7, 6, 8), pivot=5, right_high=(), suffix=(4, 3, 9)
    )
    assert f.word() == (2, 1, 7, 6, 8, 5, 4, 3, 9)


def test_factorization_edges():
    assert x_factorization((1, 2, 3, 4, 5), 5) == Factorization(
        (1, 2, 3, 4), (), 5, (), ()
    )
    assert x_factorization((2, 1), 1) == Factorization((), (2,), 1, (), ())
    assert x_factorization((1, 3, 2), 3) == Factorization((1,), (), 3, (), (2,))
    with pytest.raises(ValueOutOfRangeError):
        x_factorization((2, 1), 3)


def test_interval_swap_worked_example():
    word = (2, 1, 7, 6, 8, 5, 4, 3, 9)
    assert interval_swap(word, 5) == (2, 1, 5, 7, 6, 8, 4, 3, 9)
    assert interval_swap(interval_swap(word, 5), 5) == word


def test_interval_swap_fixes_peak():
    assert interval_swap((1, 3, 2), 3) == (1, 3, 2)


def test_minima_hop_worked_example():
    word = (6, 10, 8, 3, 1, 4, 9, 2, 5, 11, 7)
    moved = minima_hop(word, 5)
    assert moved == (6, 10, 8, 5, 3, 1, 4, 9, 2, 11, 7)
    assert minima_hop(moved, 5) == word


def test_minima_hop_two_letters():
    assert minima_hop((1, 2), 2) == (2, 1)
    assert minima_hop((2, 1), 2) == (1, 2)


def test_toggle_trajectories_on_big_example():
    # a low double ascent that is a right-to-left minimum hops left
    assert toggle(BIG, 7) == (
        12, 1, 3, 13, 15, 2, 4, 9, 16, 14, 6, 11, 8, 5, 7, 10
    )
    # valleys stay put
    assert toggle(BIG, 5) == BIG
    # 4 hops before the nearest smaller left-to-right minimum, which is 1
    assert toggle(BIG, 4) == (
        12, 7, 4, 1, 3, 13, 15, 2, 9, 16, 14, 6, 11, 8, 5, 10
    )
    # the first letter is a left-to-right minimum double descent
    assert toggle(BIG, 12) == (
        7, 1, 3, 13, 15, 2, 4, 9, 16, 14, 6, 11, 8, 5, 10, 12
    )
    assert toggle(BIG, 10) == (
        12, 10, 7, 1, 3, 13, 15, 2, 4, 9, 16, 14, 6, 11, 8, 5
    )


@pytest.mark.parametrize("x", [4, 5, 7, 10, 12, 15, 16])
def test_toggle_is_involution_on_big_example(x):
    assert toggle(toggle(BIG, x), x) == BIG


def test_toggle_all_letters_involution_small():
    for n in range(1, 7):
        for p in permutations(range(1, n + 1)):
            for x in range(1, n + 1):
                assert toggle(toggle(p, x), x) == p


def test_toggles_commute_small():
    for n in range(1, 6):
        for p in permutations(range(1, n + 1)):
            for x in range(1, n + 1):
                for y in range(x + 1, n + 1):
                    assert toggle(toggle(p, x), y) == toggle(toggle(p, y), x)


def test_toggle_flips_letter_class():
    for p in permutations(range(1, 7)):
        kinds = dict(zip(p, classify(p)))
        for x in range(1, 7):
            q = toggle(p, x)
            new = dict(zip(q, classify(q)))[x]
            if kinds[x] == DOUBLE_ASC:
                assert new == DOUBLE_DESC, (p, x)
            elif kinds[x] == DOUBLE_DESC:
                assert new == DOUBLE_ASC, (p, x)
            else:
                assert q == p


def test_toggle_many_order_independent():
    rng = random.Random(7)
    for _ in range(50):
        p = tuple(rng.sample(range(1, 8), 7))
        xs = rng.sample(range(1, 8), rng.randint(0, 7))
        shuffled = list(xs)
        rng.shuffle(shuffled)
        assert toggle_many(p, xs) == toggle_many(p, shuffled)
        assert toggle_many(toggle_many(p, xs), xs) == p


def test_orbit_of_two_letters():
    o = orbit((2, 1))
    assert o.members == ((1, 2), (2, 1))
    assert o.representative == (1, 2)
    assert o.size == 2


def test_orbit_of_three_letters():
    o = orbit((2, 1, 3))
    assert o.members == ((1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1))
    assert o.representative == (1, 2, 3)


def test_all_peak_valley_words_are_singletons():
    # under high padding these are the odd-length words that rise and fall
    # alternately starting upward
    for word in ((1,), (1, 3, 2), (1, 3, 2, 5, 4), (2, 4, 1, 5, 3)):
        o = orbit(word)
        assert o.members == (word,)
        s = stats(word)
        assert s.double_asc == s.double_desc == 0


def test_orbit_size_and_representative():
    for n in range(1, 7):
        for p in permutations(range(1, n + 1)):
            o = orbit(p)
            s = stats(p)
            assert o.size == 2 ** (s.double_asc + s.double_desc)
            assert stats(o.representative).double_desc == 0
            dd_free = [w for w in o.members if stats(w).double_desc == 0]
            assert dd_free == [o.representative]


def test_orbits_partition_the_symmetric_group():
    n = 5
    seen = {}
    for p in permutations(range(1, n + 1)):
        o = orbit(p)
        key = o.representative
        if key in seen:
            assert seen[key] == o.members
        else:
            seen[key] = o.members
    total = sum(len(m) for m in seen.values())
    assert total == 120


def _orbit_oracle(w):
    # the level-order closure under the public toggle, with the
    # representative read off the statistic profiles
    seen, frontier = {w}, [w]
    while frontier:
        nxt = []
        for u in frontier:
            for x in range(1, len(w) + 1):
                v = toggle(u, x)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    members = tuple(sorted(seen))
    reps = [m for m in members if stats(m).double_desc == 0]
    assert len(reps) == 1
    return Orbit(members=members, representative=reps[0])


@pytest.mark.parametrize("n", range(0, 8))
def test_orbit_matches_the_level_order_oracle(n):
    # one oracle closure per orbit, compared with the orbit of every member
    want = {}
    for p in permutations(range(1, n + 1)):
        if p not in want:
            o = _orbit_oracle(p)
            want.update(dict.fromkeys(o.members, o))
        assert orbit(p) == want[p], p


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=8, max_value=10).flatmap(
    lambda n: st.permutations(range(1, n + 1))).map(tuple))
def test_orbit_matches_the_oracle_on_longer_words(w):
    assert orbit(w) == _orbit_oracle(w)


def test_orbit_respects_cap():
    with pytest.raises(CapExceededError):
        orbit(tuple(range(1, 12)))


def test_orbit_dot_output():
    o = orbit((2, 1, 3))
    dot = orbit_dot(o)
    assert dot.startswith("graph ")
    assert "node [shape=box]" in dot
    assert '"1 2 3" [style=bold]' in dot
    assert '"1 2 3" -- "2 1 3" [label="2"]' in dot
    # undirected edges appear once
    assert dot.count('"2 1 3"') == 3  # node line + two edge lines


def _orbit_dot_oracle(orb):
    # every toggle through the public toggle, both ends of every edge
    # formatted before deduplicating
    n = len(orb.representative)
    lines = ["graph orbit {", "  node [shape=box];"]
    for m in orb.members:
        style = " [style=bold]" if m == orb.representative else ""
        lines.append(f'  "{format_perm(m)}"{style};')
    edges = set()
    for m in orb.members:
        for x in range(1, n + 1):
            v = toggle(m, x)
            if v != m:
                a, b = sorted((m, v))
                edges.add((a, b, x))
    for a, b, x in sorted(edges):
        lines.append(f'  "{format_perm(a)}" -- "{format_perm(b)}" [label="{x}"];')
    lines.append("}")
    return "\n".join(lines)


@pytest.mark.parametrize("n", range(0, 7))
def test_orbit_dot_matches_the_public_toggle_oracle(n):
    done = set()
    for p in permutations(range(1, n + 1)):
        if p not in done:
            o = orbit(p)
            done.update(o.members)
            assert orbit_dot(o) == _orbit_dot_oracle(o), p


def test_orbit_dot_validates_a_hand_built_orbit():
    good = orbit((2, 1, 3))
    for bad in ((1, 1, 3), (0, 1, 2), (1, 2.0, 3)):
        o = Orbit(members=good.members + (bad,), representative=good.representative)
        with pytest.raises(InvalidPermutationError):
            orbit_dot(o)
    # a member shorter than the representative has no letter 3 to toggle
    o = Orbit(members=((1, 2),) + good.members, representative=good.representative)
    with pytest.raises(ValueOutOfRangeError):
        orbit_dot(o)
    # a hand-built orbit need not be closed: its edges leave it
    o = Orbit(members=((2, 1, 3),), representative=(2, 1, 3))
    assert orbit_dot(o) == _orbit_dot_oracle(o)


def test_toggle_preserves_peak_count_and_minima_total():
    for p in permutations(range(1, 7)):
        s = stats(p)
        for x in range(1, 7):
            t = stats(toggle(p, x))
            assert t.peaks == s.peaks
            assert t.lrmin + t.rlmin == s.lrmin + s.rlmin


def _toggle_oracle(w, x):
    # the multi-pass toggle: classify the whole word, test the letter
    # against a minima value set, and hop next to the largest smaller member
    # of the opposite set; otherwise swap the high runs around x
    i = w.index(x)
    kind = classify(w)[i]
    if kind == DOUBLE_ASC and x in rlmin_values(w):
        anchor = max(v for v in lrmin_values(w) if v < x)
        rest = w[:i] + w[i + 1 :]
        j = rest.index(anchor)
        return rest[:j] + (x,) + rest[j:]
    if kind == DOUBLE_DESC and x in lrmin_values(w):
        anchor = max(v for v in rlmin_values(w) if v < x)
        rest = w[:i] + w[i + 1 :]
        j = rest.index(anchor)
        return rest[: j + 1] + (x,) + rest[j + 1 :]
    if kind in (DOUBLE_ASC, DOUBLE_DESC):
        lo = i
        while lo > 0 and w[lo - 1] > x:
            lo -= 1
        hi = i + 1
        while hi < len(w) and w[hi] > x:
            hi += 1
        return w[:lo] + w[i + 1 : hi] + (x,) + w[lo:i] + w[hi:]
    return w


@pytest.mark.parametrize("n", range(1, 9))
def test_toggle_kernel_matches_the_multi_pass_oracle(n):
    for p in permutations(range(1, n + 1)):
        for x in range(1, n + 1):
            assert toggle(p, x) == _toggle_oracle(p, x), (p, x)


@pytest.mark.parametrize("n", range(0, 9))
def test_images_kernel_matches_the_oracle_letter_by_letter(n):
    # the one place the toggle rule lives: every letter's image in one pass
    for p in permutations(range(1, n + 1)):
        assert _images(p) == tuple(_toggle_oracle(p, x) for x in range(1, n + 1)), p


def test_hop_and_swap_match_the_oracle_moves():
    # the public moves share the kernel's helpers: each agrees with the
    # toggle exactly where the toggle makes that move
    for p in permutations(range(1, 7)):
        kinds = classify(p)
        lr, rl = lrmin_values(p), rlmin_values(p)
        for x in range(1, 7):
            kind = kinds[p.index(x)]
            hops = (kind == DOUBLE_ASC and x in rl) or (kind == DOUBLE_DESC and x in lr)
            want = _toggle_oracle(p, x)
            assert minima_hop(p, x) == (want if hops else p), (p, x)
            if kind in (DOUBLE_ASC, DOUBLE_DESC) and not hops:
                assert interval_swap(p, x) == want, (p, x)


@pytest.mark.parametrize("bad", [2.0, 1.0, True, False, "2", None, 0, 3])
@pytest.mark.parametrize(
    "move", [toggle, minima_hop, interval_swap, x_factorization, lambda w, x: toggle_many(w, [x])]
)
def test_letter_must_be_a_plain_int_in_range(move, bad):
    with pytest.raises(ValueOutOfRangeError):
        move((1, 2), bad)


def test_toggle_many_checks_every_letter_before_deduplicating():
    # 2.0 == 2, so a set would keep only one of them
    with pytest.raises(ValueOutOfRangeError):
        toggle_many((1, 2), [2, 2.0])
    with pytest.raises(ValueOutOfRangeError):
        toggle_many((1, 2), [2.0, 2])


@pytest.mark.parametrize("bad", [(2.0, 1, 3), (True, 2), ("1",), (1, 2, 3.0)])
def test_non_int_words_are_rejected(bad):
    for fn in (orbit, lambda w: toggle(w, 1), lambda w: toggle_many(w, [])):
        with pytest.raises(InvalidPermutationError):
            fn(bad)


# random words past the exhaustive range, and the decreasing-prefix words
# among them: the letters before 1 sorted downwards
long_words = st.integers(min_value=12, max_value=40).flatmap(
    lambda n: st.permutations(range(1, n + 1))
).map(tuple)
long_prefix_decreasing = long_words.map(
    lambda w: tuple(sorted(w[: w.index(1)], reverse=True)) + w[w.index(1) :]
)


@settings(max_examples=100, deadline=None)
@given(long_words, st.data())
def test_toggle_properties_on_long_words(w, data):
    n = len(w)
    x = data.draw(st.integers(min_value=1, max_value=n))
    y = data.draw(st.integers(min_value=1, max_value=n).filter(lambda y: y != x))
    v = toggle(w, x)
    assert v == _toggle_oracle(w, x)
    assert toggle(v, x) == w
    assert toggle(toggle(w, x), y) == toggle(toggle(w, y), x)
    s, t = stats(w), stats(v)
    assert t.peaks == s.peaks
    assert t.lrmin + t.rlmin == s.lrmin + s.rlmin


@settings(max_examples=50, deadline=None)
@given(long_prefix_decreasing)
def test_toggles_keep_long_words_prefix_decreasing(w):
    assert is_prefix_decreasing(w)
    for x in range(1, len(w) + 1):
        assert is_prefix_decreasing(toggle(w, x)), (w, x)
