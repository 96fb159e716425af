"""Permutation words, letter classification, and class enumeration."""

from itertools import permutations
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulab.bijection import pair_table
from eulab.enumerators import alternating_weight, euler_number
from eulab.errors import CapExceededError, InvalidPermutationError, ValueOutOfRangeError
from eulab.perms import (
    DOUBLE_ASC,
    DOUBLE_DESC,
    PEAK,
    VALLEY,
    PermClass,
    StatProfile,
    _classify,
    _in_class,
    _is_prefix_decreasing,
    _minima,
    _stats,
    check_word,
    class_size,
    classify,
    enumerate_class,
    enumeration_cap,
    format_perm,
    is_prefix_decreasing,
    lrmin_values,
    minima,
    parse_perm,
    rlmin_values,
    stats,
)


def _stats_oracle(w):
    # the multi-pass profile: descents, then both minima value sets, then a
    # classify-style loop over the +inf-padded neighbours
    n, inf = len(w), float("inf")
    des = sum(1 for i in range(n - 1) if w[i] > w[i + 1])
    lr, rl = lrmin_values(w), rlmin_values(w)
    peaks = valleys = internal_da = internal_dd = rlmin_da = lrmin_dd = 0
    for i, v in enumerate(w):
        left = w[i - 1] if i else inf
        right = w[i + 1] if i + 1 < n else inf
        if left < v > right:
            peaks += 1
        elif left > v < right:
            valleys += 1
        elif left < v < right:
            if v in rl:
                rlmin_da += 1
            else:
                internal_da += 1
        elif v in lr:
            lrmin_dd += 1
        else:
            internal_dd += 1
    return StatProfile(
        n=n, des=des, asc=max(n - 1, 0) - des, peaks=peaks, valleys=valleys,
        double_asc=internal_da + rlmin_da, double_desc=internal_dd + lrmin_dd,
        lrmin=len(lr), rlmin=len(rl), internal_da=internal_da, internal_dd=internal_dd,
        rlmin_da=rlmin_da, lrmin_dd=lrmin_dd,
    )


# random words past the exhaustive range
long_words = st.integers(min_value=12, max_value=40).flatmap(
    lambda n: st.permutations(range(1, n + 1))
).map(tuple)


@pytest.mark.parametrize("n", range(9))
def test_one_pass_stats_match_the_multi_pass_oracle(n):
    for p in permutations(range(1, n + 1)):
        want = _stats_oracle(p)
        assert _stats(p) == want, p
        assert stats(p) == want, p


@settings(max_examples=100, deadline=None)
@given(long_words)
def test_one_pass_stats_match_the_oracle_on_long_words(w):
    assert _stats(w) == stats(w) == _stats_oracle(w)


@pytest.mark.parametrize(
    "bad", [(2.0, 1.0), (2.0, 1), (1, 2.5), (True,), (2, True), ("1",), (1, "2"), (None,)]
)
def test_check_word_takes_plain_int_letters_only(bad):
    with pytest.raises(InvalidPermutationError):
        check_word(bad)
    with pytest.raises(InvalidPermutationError):
        stats(bad)
    with pytest.raises(InvalidPermutationError):
        is_prefix_decreasing(bad)


def test_stats_213():
    s = stats((2, 1, 3))
    assert (s.des, s.asc) == (1, 1)
    assert (s.peaks, s.valleys) == (0, 1)
    assert (s.double_asc, s.double_desc) == (1, 1)
    assert (s.lrmin, s.rlmin) == (2, 2)
    assert (s.internal_da, s.internal_dd) == (0, 0)
    assert (s.rlmin_da, s.lrmin_dd) == (1, 1)
    assert s.weight == 2


def test_stats_identity():
    n = 6
    s = stats(tuple(range(1, n + 1)))
    assert (s.des, s.asc) == (0, n - 1)
    assert (s.peaks, s.valleys) == (0, 1)
    assert (s.double_asc, s.double_desc) == (n - 1, 0)
    assert (s.lrmin, s.rlmin) == (1, n)


def test_classify_worked_example():
    word = (7, 5, 4, 1, 2, 3, 9, 8, 6)
    assert classify(word) == (
        DOUBLE_DESC,
        DOUBLE_DESC,
        DOUBLE_DESC,
        VALLEY,
        DOUBLE_ASC,
        DOUBLE_ASC,
        PEAK,
        DOUBLE_DESC,
        VALLEY,
    )


def _classify_oracle(w):
    # the float-padded classification that preceded the kernel
    n, inf = len(w), float("inf")
    out = []
    for i, v in enumerate(w):
        left = w[i - 1] if i else inf
        right = w[i + 1] if i + 1 < n else inf
        if left < v > right:
            out.append(PEAK)
        elif left > v < right:
            out.append(VALLEY)
        elif left < v < right:
            out.append(DOUBLE_ASC)
        else:
            out.append(DOUBLE_DESC)
    return tuple(out)


@pytest.mark.parametrize("n", range(9))
def test_classify_kernel_matches_the_oracle(n):
    for p in permutations(range(1, n + 1)):
        want = _classify_oracle(p)
        assert _classify(p) == want, p
        assert classify(p) == want, p


def test_every_letter_classified_once():
    for p in permutations(range(1, 6)):
        kinds = classify(p)
        assert len(kinds) == 5
        assert set(kinds) <= {PEAK, VALLEY, DOUBLE_ASC, DOUBLE_DESC}
        # the value 1 is always a valley under the high padding
        assert kinds[p.index(1)] == VALLEY


def test_minima_examples():
    word = (5, 4, 1, 2, 7, 3, 6, 10, 9, 8)
    lpos, rpos = minima(word)
    assert lpos == (1, 2, 3)
    assert rpos == (3, 4, 6, 7, 10)
    assert rlmin_values(word) == {1, 2, 3, 6, 8}
    assert tuple(word[i - 1] for i in rpos) == (1, 2, 3, 6, 8)

    n = 5
    down = tuple(range(n, 0, -1))
    assert minima(down) == (tuple(range(1, n + 1)), (n,))
    assert lrmin_values(down) == set(range(1, n + 1))

    assert minima((2, 1)) == ((1, 2), (2,))


@pytest.mark.parametrize("n", range(8))
def test_minima_scans_match_the_definition(n):
    # a letter is kept iff it is below every letter before it in the scan
    def kept(letters):
        return {v for i, v in enumerate(letters) if all(v < u for u in letters[:i])}

    for w in permutations(range(1, n + 1)):
        assert _minima(w, n + 1) == lrmin_values(w) == kept(w), w
        assert _minima(reversed(w), n + 1) == rlmin_values(w) == kept(w[::-1]), w


def test_rlmin_values_increase_left_to_right():
    for p in permutations(range(1, 7)):
        _, rpos = minima(p)
        vals = [p[i - 1] for i in rpos]
        assert vals == sorted(vals)


def test_is_prefix_decreasing():
    assert is_prefix_decreasing((3, 1, 2)) is True
    assert is_prefix_decreasing((2, 3, 1)) is False
    assert is_prefix_decreasing((1,)) is True
    assert is_prefix_decreasing(()) is True
    # a word without the value 1 is not a permutation, not a bare ValueError
    with pytest.raises(InvalidPermutationError):
        is_prefix_decreasing((2, 3))
    # equivalent criterion: the first ascent (if any) is at the value 1
    for p in permutations(range(1, 7)):
        asc_positions = [i for i in range(5) if p[i] < p[i + 1]]
        first_asc_at_one = not asc_positions or p[asc_positions[0]] == 1
        assert is_prefix_decreasing(p) == first_asc_at_one, p


def test_parse_and_format():
    assert parse_perm("2 1 3") == (2, 1, 3)
    assert parse_perm("2,1,3") == (2, 1, 3)
    assert format_perm((2, 1, 3)) == "2 1 3"
    with pytest.raises(InvalidPermutationError):
        parse_perm("1 1 2")
    with pytest.raises(InvalidPermutationError):
        parse_perm("0 1")
    with pytest.raises(InvalidPermutationError):
        check_word((1, 3))


def test_enumerate_prefix_decreasing_class():
    words = list(enumerate_class(PermClass.PRW, 4))
    assert len(words) == 16
    assert words == sorted(words)
    expected = {
        (1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4), (1, 3, 4, 2),
        (2, 1, 3, 4), (2, 1, 4, 3), (3, 1, 2, 4), (3, 1, 4, 2),
        (3, 2, 1, 4), (4, 1, 2, 3), (4, 1, 3, 2), (4, 2, 1, 3),
        (4, 3, 1, 2), (4, 3, 2, 1), (1, 4, 2, 3), (1, 4, 3, 2),
    }
    assert set(words) == expected
    assert list(enumerate_class(PermClass.PRW, 1)) == [(1,)]


def test_enumerate_alternating():
    words = list(enumerate_class(PermClass.ALT_DOWN_UP, 4))
    assert words == [
        (2, 1, 4, 3), (3, 1, 4, 2), (3, 2, 4, 1), (4, 1, 3, 2), (4, 2, 3, 1),
    ]


def test_enumerate_sym_edge_cases():
    assert list(enumerate_class(PermClass.SYM, 0)) == [()]
    assert len(list(enumerate_class(PermClass.SYM, 4))) == 24


def test_enumerate_interior_ndd():
    words = list(enumerate_class(PermClass.NDD_INTERIOR, 3))
    # the unpadded condition only excludes an index 1 < i < n with a
    # descending run through it
    assert (3, 2, 1) not in words
    assert set(words) == set(permutations(range(1, 4))) - {(3, 2, 1)}


# each class's membership test over all n! words, written independently of
# the generation rules: the oracle the generator must match word for word
_CLASS_FILTERS = {
    PermClass.SYM: lambda w: True,
    PermClass.PRW: _is_prefix_decreasing,
    # no 1-based index 1 < i < n with w[i-1] > w[i] > w[i+1]
    PermClass.NDD_INTERIOR: lambda w: not any(
        w[i - 1] > w[i] > w[i + 1] for i in range(1, len(w) - 1)
    ),
    PermClass.ALT_DOWN_UP: lambda w: all(
        (w[i] > w[i + 1]) == (i % 2 == 0) for i in range(len(w) - 1)
    ),
}


def _filtered(tag, n):
    return [w for w in permutations(range(1, n + 1)) if _CLASS_FILTERS[tag](w)]


@pytest.mark.parametrize("n", range(9))
def test_prefix_decreasing_words_are_generated_in_filter_order(n):
    # the filter over all n! words is the oracle: same words, same order
    assert list(enumerate_class(PermClass.PRW, n)) == _filtered(PermClass.PRW, n)


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("tag", [t for t in PermClass if t is not PermClass.PRW])
def test_every_other_class_is_generated_in_filter_order(tag, n):
    assert list(enumerate_class(tag, n)) == _filtered(tag, n)


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("tag", list(PermClass))
def test_class_membership_admits_exactly_the_generated_words(tag, n):
    # one predicate read off each class's rule, checked over all n! words
    members = {w for w in permutations(range(1, n + 1)) if _in_class(tag, w)}
    assert members == set(enumerate_class(tag, n))

def test_alternating_words_are_counted_by_euler_numbers():
    assert [class_size(PermClass.ALT_DOWN_UP, n) for n in range(11)] == [
        euler_number(n) for n in range(11)
    ]


@pytest.mark.parametrize("tag", list(PermClass))
def test_negative_sizes_rejected_for_every_class(tag):
    # 0 letters hold the empty word (the filter tests above); below 0 is an error
    with pytest.raises(ValueOutOfRangeError):
        enumerate_class(tag, -1)


def test_empty_word_reaches_the_callers():
    assert alternating_weight(0) == 1  # E_0
    assert pair_table(0) == [((), ())]


def test_class_sizes():
    assert class_size(PermClass.PRW, 4) == 16
    assert class_size(PermClass.ALT_DOWN_UP, 4) == 5
    assert class_size(PermClass.SYM, 5) == 120


def test_prefix_decreasing_count_formula():
    # A000522(n) arrangements of an n-set
    for n in range(9):
        count = class_size(PermClass.PRW, n + 1)
        assert count == 1 + sum(comb(n, m) * factorial(m) for m in range(1, n + 1))


def test_cap_enforced(monkeypatch):
    with pytest.raises(CapExceededError):
        list(enumerate_class(PermClass.SYM, 11))
    monkeypatch.setenv("EULAB_MAX_N", "3")
    assert enumeration_cap() == 3
    with pytest.raises(CapExceededError):
        list(enumerate_class(PermClass.SYM, 4))
    monkeypatch.delenv("EULAB_MAX_N")
    assert enumeration_cap() == 10


def test_explicit_cap_argument(monkeypatch):
    monkeypatch.setenv("EULAB_MAX_N", "4")
    assert len(list(enumerate_class(PermClass.SYM, 4))) == 24
    with pytest.raises(CapExceededError):
        list(enumerate_class(PermClass.SYM, 5))


def test_one_cap_guard_with_one_wording(monkeypatch):
    from eulab.action import orbit
    from eulab.enumerators import EnumeratorKind, build

    build(EnumeratorKind.SE, 4)  # a warm profile cache must not bypass the cap
    monkeypatch.setenv("EULAB_MAX_N", "3")
    messages = set()
    for call in (
        lambda: enumerate_class(PermClass.SYM, 4),
        lambda: orbit((1, 2, 3, 4)),
        lambda: build(EnumeratorKind.SE, 4),
    ):
        with pytest.raises(CapExceededError) as info:
            call()
        messages.add(info.value.message)
    assert messages == {"4 letters exceed the enumeration cap 3 (EULAB_MAX_N)"}


def test_no_public_function_takes_a_cap():
    # EULAB_MAX_N is the only way to set the cap
    import importlib
    import inspect

    for mod in ("action", "bijection", "enumerators", "gamma", "perms"):
        module = importlib.import_module(f"eulab.{mod}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and not name.startswith("_"):
                assert "cap" not in inspect.signature(obj).parameters, f"{mod}.{name}"


@pytest.mark.parametrize("n", range(1, 8))
def test_profile_invariants_exhaustive(n):
    for p in permutations(range(1, n + 1)):
        s = stats(p)
        assert s.des + s.asc == n - 1
        assert s.peaks + s.double_desc == s.des
        assert s.peaks + s.double_asc == s.asc
        assert s.valleys == s.peaks + 1
        assert s.double_asc + s.double_desc == n - 1 - 2 * s.peaks
        assert s.internal_da + s.rlmin_da == s.double_asc
        assert s.internal_dd + s.lrmin_dd == s.double_desc
        if is_prefix_decreasing(p):
            # every left-to-right minimum above 1 is then a double descent
            assert s.lrmin_dd == s.lrmin - 1
        assert s.weight == s.lrmin + s.rlmin - 2


@settings(max_examples=50, deadline=None)
@given(st.permutations(list(range(1, 9))))
def test_stats_accepts_any_word(p):
    s = stats(tuple(p))
    assert s.n == 8
    assert s.des + s.asc == 7
