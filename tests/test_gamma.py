"""Expansion in the basis (xy)^k (x+y)^(n-2k) and its three class builders."""

from fractions import Fraction
from itertools import permutations

import pytest

from eulab.enumerators import EnumeratorKind, build
from eulab.errors import NotHomogeneousError, NotSymmetricError, ValueOutOfRangeError
from eulab.gamma import GammaRoute, basis_sum, gamma_expand, gamma_from_class
from eulab.perms import stats
from eulab.poly import MultiPoly, parse_poly


def test_expand_degree_four_display():
    p = build(EnumeratorKind.BSE, 4).value
    ge = gamma_expand(p)
    assert ge.n == 4
    assert ge.gammas == (
        parse_poly("al^4"),
        parse_poly("6*al^3 + 4*al^2 + al"),
        parse_poly("3*al^2 + 2*al"),
    )
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    assert basis_sum(ge.gammas, x * y, x + y, ge.n) == p


def test_expand_basis_element():
    ge = gamma_expand(parse_poly("(x+y)^2"))
    assert ge.gammas == (MultiPoly.one(), MultiPoly.zero())


def test_expand_degree_two_display():
    ge = gamma_expand(parse_poly("al^2*x^2 + (2*al^2 + al)*x*y + al^2*y^2"))
    assert ge.gammas == (parse_poly("al^2"), parse_poly("al"))


def test_expand_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        gamma_expand(parse_poly("x^2 + x*y"))


def test_expand_rejects_inhomogeneous():
    with pytest.raises(NotHomogeneousError):
        gamma_expand(parse_poly("x*y + x + y"))


def test_expand_custom_variable_names():
    p = parse_poly("u^2 + 2*u*v + v^2")
    assert gamma_expand(p, x="u", y="v").gammas == (
        MultiPoly.one(),
        MultiPoly.zero(),
    )


def _weight(profile):
    return MultiPoly.monomial(1, {"al": profile.weight})


def test_route_one_small_case():
    # over the 3-letter prefix-decreasing words, one ascent and no double
    # ascents leaves only 1 3 2
    got = gamma_from_class(GammaRoute.ASC_NO_DA, 2)
    assert got[1] == parse_poly("al")


def test_route_two_small_case():
    # zero peaks over the 3-letter prefix-decreasing words: each of
    # 123, 213, 312, 321 weighs al^2, scaled by 2^(0-2)
    got = gamma_from_class(GammaRoute.PEAKS_HALVED, 2)
    assert got[0] == parse_poly("al^2")


def test_route_three_small_case():
    got = gamma_from_class(GammaRoute.NDD_DESCENTS, 4)
    assert got[2] == parse_poly("3*al^2 + 2*al")
    # independent oracle: descent pairs with no interior descending run
    acc = MultiPoly.zero()
    for p in permutations(range(1, 5)):
        des = sum(a > b for a, b in zip(p, p[1:]))
        interior_run = any(
            p[i - 1] > p[i] > p[i + 1] for i in range(1, 3)
        )
        if des == 2 and not interior_run:
            acc = acc + MultiPoly.monomial(1, {"al": stats(p).rlmin})
    assert got[2] == acc


@pytest.mark.parametrize("n", range(1, 7))
def test_three_routes_agree_with_expansion(n):
    ge = gamma_expand(build(EnumeratorKind.BSE, n).value)
    dense = list(ge.gammas)
    assert gamma_from_class(GammaRoute.ASC_NO_DA, n) == dense
    assert gamma_from_class(GammaRoute.PEAKS_HALVED, n) == dense
    assert gamma_from_class(GammaRoute.NDD_DESCENTS, n) == dense


@pytest.mark.parametrize("n", range(1, 7))
def test_expansion_coefficients_nonnegative_integers(n):
    for g in gamma_expand(build(EnumeratorKind.BSE, n).value).gammas:
        for _, coef in g.terms():
            assert coef.denominator == 1
            assert coef >= 0


def test_every_route_gives_one_at_n_zero():
    assert gamma_expand(build(EnumeratorKind.BSE, 0).value).gammas == (MultiPoly.one(),)
    for route in GammaRoute:
        assert gamma_from_class(route, 0) == [MultiPoly.one()]
    with pytest.raises(ValueOutOfRangeError, match="at least 0, got -1"):
        gamma_from_class(GammaRoute.ASC_NO_DA, -1)


def test_halving_route_uses_exact_fractions():
    # the scale 2^(2k-n) is a Fraction; verify an odd halving case exactly
    got = gamma_from_class(GammaRoute.PEAKS_HALVED, 3)
    want = gamma_from_class(GammaRoute.ASC_NO_DA, 3)
    assert got == want
    assert all(
        coef == Fraction(int(coef)) for g in got for _, coef in g.terms()
    )


def test_routes_one_and_two_read_the_warm_profile_cache(monkeypatch):
    import eulab.enumerators
    import eulab.gamma
    import eulab.perms

    n = 5
    want = gamma_expand(build(EnumeratorKind.BSE, n).value).gammas

    def no_words(*args):
        raise AssertionError("a word was generated with the profile cache warm")

    for module in (eulab.perms, eulab.enumerators, eulab.gamma):
        for name in ("enumerate_class", "stats", "_stats"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_words)
    for route in (GammaRoute.ASC_NO_DA, GammaRoute.PEAKS_HALVED):
        assert tuple(gamma_from_class(route, n)) == want

