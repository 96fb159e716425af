"""Expansion in the basis (xy)^k (x+y)^(n-2k) and its three class builders."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulab.enumerators import EnumeratorKind, build
from eulab.errors import (
    NonzeroResidualError,
    NotHomogeneousError,
    NotSymmetricError,
    ValueOutOfRangeError,
)
from eulab.gamma import ROUTES, GammaRoute, basis_sum, gamma_expand, gamma_from_class
from eulab.grammar import builtin, derive
from eulab.perms import stats
from eulab.poly import MultiPoly, parse_poly, poly_sum


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
    with pytest.raises(NotSymmetricError) as info:
        gamma_expand(parse_poly("x^2 + x*y"))
    assert str(info.value) == "not symmetric in 'x', 'y': x^2 + x*y"


def test_expand_rejects_inhomogeneous():
    with pytest.raises(NotHomogeneousError) as info:
        gamma_expand(parse_poly("x*y + x + y"))
    assert str(info.value) == "mixed degrees [1, 2] in ['x', 'y']"


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



def _peel_oracle(p: MultiPoly) -> tuple:
    # the subtract-and-repeat peel that the triangular solve replaced: gamma_k
    # is the coefficient of x^k y^(n-k) in what is left after subtracting
    # every lower basis element, found by a scan of the terms; the degree and
    # the symmetry come from scans of their own, not from a coefficient split
    degrees = {sum(e for v, e in m if v in ("x", "y")) for m, _ in p.terms()}
    if len(degrees) > 1:
        raise NotHomogeneousError(f"mixed degrees {sorted(degrees)} in ['x', 'y']")
    n = max(degrees, default=0)
    if p != p.rename({"x": "y", "y": "x"}):
        raise NotSymmetricError(f"not symmetric in 'x', 'y': {p}")
    vx, vy = MultiPoly.var("x"), MultiPoly.var("y")
    residual, gammas = p, []
    for k in range(n // 2 + 1):
        g = poly_sum(
            MultiPoly({tuple((v, e) for v, e in m if v not in ("x", "y")): c})
            for m, c in residual.terms()
            if dict(m).get("x", 0) == k and dict(m).get("y", 0) == n - k
        )
        gammas.append(g)
        residual = residual - g * (vx * vy) ** k * (vx + vy) ** (n - 2 * k)
    if not residual.is_zero():
        raise NonzeroResidualError(f"residual {residual} after peeling {p}")
    return tuple(gammas)


def _collapsed_two_variable(n: int) -> MultiPoly:
    # the two-variable derivative with z read as x and the a-factor dropped
    return derive(builtin("two-variable"), "a", n).rename({"z": "x"}).coefficient({"a": 1})


@pytest.mark.parametrize("n", range(9))
def test_solve_matches_the_peel_on_the_enumerator(n):
    p = build(EnumeratorKind.BSE, n).value
    assert gamma_expand(p).gammas == _peel_oracle(p)


def test_solve_matches_the_peel_on_the_collapsed_derivative():
    for n in range(31):
        p = _collapsed_two_variable(n)
        assert gamma_expand(p).gammas == _peel_oracle(p), n


@pytest.mark.parametrize("n", range(1, 17))
def test_the_basis_sum_rebuilds_the_collapsed_derivative(n):
    p = _collapsed_two_variable(n)
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    assert basis_sum(gamma_expand(p).gammas, x * y, x + y, n) == p


def test_fraction_gammas_that_turn_integral_are_stored_as_ints():
    # gamma_1 = 2 - C(2, 1) * 1/2 is an integral Fraction, and gamma_1 of
    # al*(x+y)^2/2 cancels to 0: the weighted sum demotes the one, drops the other
    gammas = gamma_expand(parse_poly("1/2*x^2 + 2*x*y + 1/2*y^2")).gammas
    assert gammas == (MultiPoly.const(Fraction(1, 2)), MultiPoly.one())
    assert [type(c) for g in gammas for _, c in g.terms()] == [Fraction, int]
    assert gamma_expand(parse_poly("1/2*(x+y)^2*al")).gammas == (parse_poly("1/2*al"), MultiPoly.zero())


# a Laurent residual is exactly the terms with a negative x or y exponent
RESIDUALS = {
    "x^3*y^-1 + x*y + x^-1*y^3":
        "residual x^3*y^-1 + x^-1*y^3 after peeling x^3*y^-1 + x*y + x^-1*y^3",
    "x^-1*y^-1": "residual x^-1*y^-1 after peeling x^-1*y^-1",
    "al*x^4*y^-2 + 2*x*y + al*x^-2*y^4":
        "residual al*x^4*y^-2 + al*x^-2*y^4 after peeling al*x^4*y^-2 + al*x^-2*y^4 + 2*x*y",
}


@pytest.mark.parametrize("text", RESIDUALS)
def test_a_laurent_residual_is_reported_whole(text):
    with pytest.raises(NonzeroResidualError) as info:
        gamma_expand(parse_poly(text))
    assert str(info.value) == RESIDUALS[text]


@pytest.mark.parametrize(
    "text", [*RESIDUALS, "x^-1*y + x*y^-1", "x^2 + x*y", "x*y + x + y", "x^3 + y^3 + x*y^2"]
)
def test_solve_raises_as_the_peel_does(text):
    p = parse_poly(text)
    with pytest.raises(Exception) as want:
        _peel_oracle(p)
    with pytest.raises(Exception) as got:
        gamma_expand(p)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


_scalars = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)


@st.composite
def _gamma_lists(draw):
    # n reaches past the enumeration cap: the solve enumerates nothing
    n = draw(st.integers(min_value=0, max_value=40))
    return n, tuple(
        MultiPoly.monomial(draw(_scalars), {"al": draw(st.integers(min_value=0, max_value=3))})
        for _ in range(n // 2 + 1)
    )


@settings(max_examples=40, deadline=None)
@given(_gamma_lists())
def test_solve_inverts_the_basis_sum(case):
    n, gammas = case
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    got = gamma_expand(basis_sum(gammas, x * y, x + y, n))
    # the basis is independent, so only all-zero gammas give the zero polynomial
    want = (n, gammas) if any(gammas) else (0, (MultiPoly.zero(),))
    assert (got.n, got.gammas) == want


@pytest.mark.parametrize("n", range(9))
def test_every_route_row_equals_the_peel(n):
    want = list(gamma_expand(build(EnumeratorKind.BSE, n).value).gammas)
    assert {name: route(n) for name, route in ROUTES.items()} == dict.fromkeys(ROUTES, want)
