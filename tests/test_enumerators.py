"""Closed-class enumerating polynomials and integer sequences."""

import subprocess
import sys
from collections import Counter
from itertools import permutations
from math import comb, factorial

import pytest

import eulab.enumerators
from eulab.enumerators import (
    Enumerator,
    EnumeratorKind,
    alternating_weight,
    build,
    euler_number,
    profile_counts,
    profile_sum,
    stirling_eulerian,
)
from eulab.errors import CapExceededError, ValueOutOfRangeError
from eulab.gamma import GammaRoute, gamma_from_class
from eulab.perms import PermClass, _stats, enumerate_class, stats
from eulab.poly import MultiPoly, parse_poly


def test_build_two_variable_small():
    assert build(EnumeratorKind.BSE, 0).value == MultiPoly.one()
    assert build(EnumeratorKind.BSE, 1).value == parse_poly("al*(x+y)")
    assert build(EnumeratorKind.BSE, 2).value == parse_poly(
        "al^2*(x+y)^2 + al*x*y"
    )
    p3 = build(EnumeratorKind.BSE, 3).value
    assert p3 == parse_poly("al^3*(x+y)^3 + (al + 3*al^2)*x*y*(x+y)")


def test_build_three_variable_small():
    assert build(EnumeratorKind.BSE_Z, 1).value == parse_poly("al*(y+z)")
    # the z-variable tracks the decreasing-prefix length; setting z=x
    # recovers the two-variable polynomial
    for n in range(0, 6):
        p = build(EnumeratorKind.BSE_Z, n).value
        q = build(EnumeratorKind.BSE, n).value
        assert p.substitute({"z": parse_poly("x")}) == q


def test_build_five_variable_small():
    assert build(EnumeratorKind.PTILDE, 1).value == parse_poly("al*(u3+u5)")
    assert build(EnumeratorKind.PTILDE, 2).value == parse_poly(
        "al^2*(u3+u5)^2 + al*u1*u2"
    )


def test_build_symmetric_kind():
    # over all six three-letter words
    p = build(EnumeratorKind.SE, 3).value
    assert p == parse_poly("al^2*(x+y)^2 + 2*al*x*y")
    v = p.substitute({"x": -1, "y": 1})
    assert v == parse_poly("-2*al")
    assert p.substitute({"x": -1, "y": 1, "al": parse_poly("1/2*al")}) == parse_poly("-al")


def test_build_refined_class_choices():
    e = build(EnumeratorKind.REFINED, 3, klass=PermClass.SYM)
    f = build(EnumeratorKind.REFINED, 3, klass=PermClass.PRW)
    assert e.value != f.value
    assert e.klass == PermClass.SYM
    # the prefix-decreasing class is the default
    assert build(EnumeratorKind.REFINED, 3).value == f.value
    with pytest.raises(ValueOutOfRangeError):
        build(EnumeratorKind.REFINED, 3, klass=PermClass.ALT_DOWN_UP)


def test_build_takes_a_class_by_name_as_it_takes_a_kind():
    named = build("refined", 2, "sym")
    assert named == build(EnumeratorKind.REFINED, 2, PermClass.SYM)
    assert named.klass is PermClass.SYM
    # an unknown name fails as an unknown kind name does
    with pytest.raises(ValueError, match="'bogus' is not a valid PermClass"):
        build(EnumeratorKind.REFINED, 2, "bogus")
    with pytest.raises(ValueError, match="'bogus' is not a valid EnumeratorKind"):
        build("bogus", 2)


def test_build_rejects_bad_index():
    with pytest.raises(ValueOutOfRangeError):
        build(EnumeratorKind.SE, 0)
    with pytest.raises(ValueOutOfRangeError):
        build(EnumeratorKind.BSE, -1)
    # no letters: the minima weight would be al^-2
    with pytest.raises(ValueOutOfRangeError):
        build(EnumeratorKind.REFINED, 0, klass=PermClass.SYM)
    assert build(EnumeratorKind.BSE, 0).value == MultiPoly.one()


@pytest.mark.parametrize("size", [2.0, True])
def test_a_size_that_is_not_an_int_is_rejected_cold_and_warm(size, library_caches):
    # 2.0 and True equal 2 and 1, so a cache keyed by the size would serve
    # them once the int size has been built
    calls = [
        lambda: build(EnumeratorKind.BSE, size),
        lambda: profile_counts(PermClass.PRW, size),
        lambda: euler_number(size),
        lambda: gamma_from_class(GammaRoute.ASC_NO_DA, size),
        lambda: stirling_eulerian(size, 1),
    ]
    for warm in (False, True):
        if warm:
            build(EnumeratorKind.BSE, int(size))
            profile_counts(PermClass.PRW, int(size))
            stirling_eulerian(int(size), 1)
        else:
            for cache in library_caches:
                cache.cache_clear()
        for call in calls:
            with pytest.raises(ValueOutOfRangeError, match="takes an int"):
                call()


def test_build_respects_cap(monkeypatch):
    with pytest.raises(CapExceededError):
        build(EnumeratorKind.BSE, 11)
    monkeypatch.setenv("EULAB_MAX_N", "9")
    with pytest.raises(CapExceededError):
        build(EnumeratorKind.BSE, 10)


def _no_sum(monkeypatch):
    def boom(*args):
        raise AssertionError("a warm value was summed again")

    monkeypatch.setattr(eulab.enumerators, "profile_sum", boom)


def test_each_value_is_summed_once_per_process(monkeypatch, cold_profile_route):
    first = build(EnumeratorKind.REFINED, 3, "sym").value
    rows = {k: stirling_eulerian(4, k) for k in range(6)}  # one sum over S_4 for every k
    _no_sum(monkeypatch)
    assert build(EnumeratorKind.REFINED, 3, PermClass.SYM).value is first
    assert {k: stirling_eulerian(4, k) for k in range(6)} == rows
    with pytest.raises(AssertionError, match="summed again"):
        build(EnumeratorKind.REFINED, 3)  # another class is another value


def test_a_warm_value_is_still_held_to_the_cap(monkeypatch, cold_profile_route):
    # build(bse, 5) has 6 letters, and so has the Stirling row of m = 6
    build(EnumeratorKind.BSE, 5)
    stirling_eulerian(6, 2)
    _no_sum(monkeypatch)
    monkeypatch.setenv("EULAB_MAX_N", "5")
    with pytest.raises(CapExceededError, match="6 letters exceed the enumeration cap 5"):
        build(EnumeratorKind.BSE, 5)
    with pytest.raises(CapExceededError, match="6 letters exceed the enumeration cap 5"):
        stirling_eulerian(6, 2)
    monkeypatch.setenv("EULAB_MAX_N", "6")
    assert build(EnumeratorKind.BSE, 5).value.eval_at({"x": 1, "y": 1, "al": 1}) == 326
    assert stirling_eulerian(6, 2).substitute({"al": 1}) == MultiPoly.const(302)


def test_enumerator_record_round_trip():
    e = build(EnumeratorKind.BSE, 2)
    payload = e.to_json()
    assert payload["kind"] == "bse"
    assert payload["index"] == 2
    back = Enumerator.from_json(payload)
    assert type(back) is Enumerator and back == e


@pytest.mark.parametrize("index", [1.5, 2.0, "2", True])
def test_enumerator_from_json_takes_only_the_int_index_to_json_writes(index):
    payload = {**build(EnumeratorKind.BSE, 2).to_json(), "index": index}
    with pytest.raises(ValueOutOfRangeError, match="takes an int index"):
        Enumerator.from_json(payload)


@pytest.mark.parametrize(
    "kind, klass",
    [("bse", "sym"), ("bse", "prw"), ("se", "sym"), ("refined", "ndd-interior"),
     ("refined", None), ("refined", "")],
)
def test_enumerator_from_json_takes_only_the_class_build_records(kind, klass):
    # a kind with one class records none; a kind with more records one of its own
    payload = {**build(EnumeratorKind.BSE, 2).to_json(), "kind": kind, "class": klass}
    with pytest.raises(ValueOutOfRangeError, match="never records class"):
        Enumerator.from_json(payload)


def test_two_variable_symmetry_and_homogeneity():
    for n in range(1, 7):
        p = build(EnumeratorKind.BSE, n).value
        assert p.is_symmetric_in("x", "y")
        assert {i + j for i, j in p.coefficients(["x", "y"])} == {n}


def test_point_count_formula():
    for n in range(0, 7):
        p = build(EnumeratorKind.BSE, n).value
        count = p.eval_at({v: 1 for v in p.variables()})
        assert count == 1 + sum(comb(n, m) * factorial(m) for m in range(1, n + 1))


def test_stirling_eulerian_values():
    assert stirling_eulerian(0, 0) == MultiPoly.one()
    assert stirling_eulerian(2, 1) == parse_poly("al^2")
    assert stirling_eulerian(3, 1) == parse_poly("3*al^2 + al")
    assert stirling_eulerian(3, 5) == MultiPoly.zero()


@pytest.mark.parametrize("k", [True, 1.0, "1"])
def test_stirling_eulerian_takes_an_int_k(k):
    with pytest.raises(ValueOutOfRangeError, match="takes an int k"):
        stirling_eulerian(3, k)


@pytest.mark.parametrize("m", ["3", 2.0, True])
def test_stirling_eulerian_takes_an_int_m(m):
    # rejected by name, before ``m < 0`` or the enumeration size check sees it
    with pytest.raises(ValueOutOfRangeError, match="stirling_eulerian takes an int m"):
        stirling_eulerian(m, 1)


@pytest.mark.parametrize("m", range(8))
def test_each_stirling_row_equals_its_filtered_sum(m):
    # the oracle: one sum over S_m for each k, filtered by ascent count
    for k in range(m + 2):
        filtered = profile_sum(PermClass.SYM, m,
                               lambda s: {"al": s.rlmin} if s.asc == k else None)
        assert stirling_eulerian(m, k) == filtered, (m, k)


def test_stirling_eulerian_at_one_counts_ascents():
    for m in range(1, 7):
        for k in range(m):
            count = sum(
                1
                for p in permutations(range(1, m + 1))
                if sum(a < b for a, b in zip(p, p[1:])) == k
            )
            assert stirling_eulerian(m, k).substitute({"al": 1}) == MultiPoly.const(
                count
            )


def test_euler_numbers():
    assert [euler_number(i) for i in range(9)] == [
        1, 1, 1, 2, 5, 16, 61, 272, 1385,
    ]


def test_euler_numbers_match_the_boustrophedon():
    # Seidel-Entringer: each row is the running sum of the previous row
    # read backwards, and its last entry is the next Euler number; at
    # n = 400 a recursive convolution would overflow the stack
    row, want = [1], [1]
    for _ in range(400):
        nxt = [0]
        for v in reversed(row):
            nxt.append(nxt[-1] + v)
        row = nxt
        want.append(row[-1])
    assert euler_number(400) == want[400]
    assert [euler_number(n) for n in range(30)] == want[:30]


def test_euler_numbers_count_alternating_words():
    for n in range(1, 8):
        count = sum(
            1
            for p in permutations(range(1, n + 1))
            if all(
                (p[i] > p[i + 1]) == (i % 2 == 0) for i in range(n - 1)
            )
        )
        assert euler_number(n) == count


def test_alternating_weight():
    # signed sum of al^rlmin over down-up words
    w4 = alternating_weight(4)
    acc = MultiPoly.zero()
    for p in ((2, 1, 4, 3), (3, 1, 4, 2), (3, 2, 4, 1), (4, 1, 3, 2), (4, 2, 3, 1)):
        acc = acc + MultiPoly.monomial(1, {"al": stats(p).rlmin})
    assert w4 == acc
    assert w4.substitute({"al": 1}) == MultiPoly.const(euler_number(4))


# -- the rule-set route of the profile tables ---------------------------------


@pytest.mark.parametrize("tag", list(PermClass))
@pytest.mark.parametrize("m", range(9))
def test_the_rule_route_equals_the_enumerated_table(tag, m):
    table = profile_counts(tag, m)
    assert dict(table) == Counter(_stats(w) for w in enumerate_class(tag, m))
    assert list(table) == sorted(table)


def _no_double_fall_count(m: int) -> int:
    """Words of S_m with no three consecutive letters decreasing, by the
    up-down recurrence: ``f[j][d]`` counts arrangements whose last letter
    has rank j among them, d marking a descent into it."""
    if m < 2:
        return 1
    f = [[1, 0]]  # one letter: rank 0, no descent into it
    for k in range(1, m):  # append a letter to arrangements of k letters
        g = [[0, 0] for _ in range(k + 1)]
        for j, (up, down) in enumerate(f):
            for r in range(k + 1):  # rank of the new letter among k + 1
                if r <= j:  # the old last letter moves to rank j + 1 > r
                    g[r][1] += up  # a descent, allowed only after an ascent
                else:
                    g[r][0] += up + down
        f = g
    return sum(up + down for up, down in f)


@pytest.mark.parametrize("m", range(1, 13))
def test_the_rule_route_reaches_past_the_exhaustive_range(monkeypatch, cold_profile_route, m):
    # no word is generated, so the class sizes hold on 12 letters too; the
    # fixture keeps tables past the default cap out of later tests' cache
    monkeypatch.setenv("EULAB_MAX_N", "12")
    totals = {tag: sum(c for _, c in profile_counts(tag, m)) for tag in PermClass}
    assert totals == {
        PermClass.SYM: factorial(m),
        PermClass.PRW: sum(factorial(m - 1) // factorial(j) for j in range(m)),
        PermClass.NDD_INTERIOR: _no_double_fall_count(m),
        PermClass.ALT_DOWN_UP: euler_number(m),
    }


def test_the_up_down_recurrence_counts_words_free_of_double_falls():
    for m in range(8):
        words = permutations(range(1, m + 1))
        want = sum(1 for w in words if not any(a > b > c for a, b, c in zip(w, w[1:], w[2:])))
        assert _no_double_fall_count(m) == want


def test_one_derivative_per_size_is_shared_and_extended(monkeypatch, cold_profile_route):
    steps = []
    derive = eulab.enumerators.derive

    def counted(grammar, start, n):
        steps.append(n)
        return derive(grammar, start, n)

    monkeypatch.setattr(eulab.enumerators, "derive", counted)
    for tag in (PermClass.SYM, PermClass.NDD_INTERIOR, PermClass.ALT_DOWN_UP):
        profile_counts(tag, 5)
    assert steps == [1] * 4  # 1 -> 5 letters, read by all three classes
    profile_counts(PermClass.SYM, 6)
    assert steps == [1] * 5  # one step past the size below
    profile_counts(PermClass.PRW, 3)
    assert steps == [1] * 7  # the other rule set


@pytest.mark.parametrize("size, error", [
    (2.0, ValueOutOfRangeError), (True, ValueOutOfRangeError), ("3", ValueOutOfRangeError),
    (-1, ValueOutOfRangeError), (11, CapExceededError),
])
def test_a_bad_size_is_rejected_before_any_derivation_step(monkeypatch, cold_profile_route,
                                                           size, error):
    def boom(*args, **kwargs):
        raise AssertionError("a derivation step ran")

    monkeypatch.setattr(MultiPoly, "derivation", boom)
    monkeypatch.setattr(eulab.enumerators, "builtin", boom)
    for tag in PermClass:
        with pytest.raises(error):
            profile_counts(tag, size)
    monkeypatch.setenv("EULAB_MAX_N", "4")
    with pytest.raises(CapExceededError):
        profile_counts(PermClass.PRW, 5)


def test_the_profile_rule_sets_are_parsed_on_first_use():
    # nothing is parsed at import, and build(bse, 2) parses the one rule set it reads
    code = ("import eulab, eulab.grammar as g; print(g.builtin.cache_info().currsize); "
            "eulab.build('bse', 2); print(g.builtin.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["0", "1"]
