"""Expansion of symmetric homogeneous polynomials in the basis
``(xy)^k (x+y)^(n-2k)``, and the table of routes to its coefficients.

``gamma_expand`` reads all it needs from one split of its input by the
exponents of x and y: the degree n, the swap symmetry, the residual and
c_k, the coefficient of ``x^k y^(n-k)``.  The basis element i puts
C(n-2i, k-i) on that term, so gamma_k = c_k - sum_{i<k} C(n-2i, k-i) gamma_i
for k = 0..n/2.  By symmetry this matches every term with both exponents in
0..n, so the residual, which must vanish, is the terms with a negative x or
y exponent.

``gamma_from_class`` computes the same coefficient lists directly from
permutation classes, one profile sum per route with its own filter and
statistic (documented on the enum), without touching the peeling route.
``ROUTES`` maps each ``eulab gamma --interp`` name to ``n -> [gamma_0..]``:
the class routes, then ``"expand"``, the peel of ``build(BSE, n)`` and the
reference that ``prw-g`` compares every other row with.  Every row runs one
range check on n first, and looks its functions up here when called, so a
patched one is seen.
"""

from __future__ import annotations

from enum import IntEnum
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .enumerators import EnumeratorKind, build, profile_sum
from .errors import (
    NonzeroResidualError,
    NotHomogeneousError,
    NotSymmetricError,
    ValueOutOfRangeError,
)
from .perms import PermClass, _require_ints, letters
from .poly import MultiPoly, poly_sum, weighted_sum


class GammaExpansion(NamedTuple):
    """Coefficients gamma_0..gamma_floor(n/2), each a polynomial in the
    variables left after removing x and y."""

    n: int
    gammas: tuple  # tuple[MultiPoly, ...]


def basis_sum(gammas, pair: MultiPoly, linear: MultiPoly, degree: int) -> MultiPoly:
    """The sum of ``gammas[k] * pair^k * linear^(degree - 2k)``: the basis
    expansion with the given coefficients, over any pair and linear factor.

    >>> x, y = MultiPoly.var("x"), MultiPoly.var("y")
    >>> str(basis_sum([MultiPoly.const(1), MultiPoly.const(3)], x * y, x + y, 2))
    'x^2 + 5*x*y + y^2'
    """
    return poly_sum(g * pair**k * linear ** (degree - 2 * k) for k, g in enumerate(gammas))


def gamma_expand(p: MultiPoly) -> GammaExpansion:
    """Expand ``p``, homogeneous in x and y and symmetric under their swap,
    in the basis ``(xy)^k (x+y)^(n-2k)``, by the solve above; a Laurent
    residual is a ``NonzeroResidualError``.

    >>> from .poly import parse_poly
    >>> e = gamma_expand(parse_poly("al^2*(x+y)^2 + al*x*y"))
    >>> [str(g) for g in e.gammas]
    ['al^2', 'al']
    """
    rows = p.coefficients(["x", "y"])
    degrees = {i + j for i, j in rows}
    if len(degrees) > 1:
        raise NotHomogeneousError(f"mixed degrees {sorted(degrees)} in ['x', 'y']")
    n = max(degrees, default=0)  # the zero polynomial has degree 0
    if any(rows.get((j, i)) != row for (i, j), row in rows.items()):
        raise NotSymmetricError(f"not symmetric in 'x', 'y': {p}")
    if residual := poly_sum(
        row * MultiPoly.monomial(1, {"x": i, "y": j})
        for (i, j), row in rows.items() if i < 0 or j < 0
    ):
        raise NonzeroResidualError(f"residual {residual} after peeling {p}")
    gammas = []
    for k in range(n // 2 + 1):
        lower = ((-comb(n - 2 * i, k - i), g) for i, g in enumerate(gammas))
        gammas.append(weighted_sum([(1, rows.get((k, n - k), MultiPoly.zero())), *lower]))
    return GammaExpansion(n=n, gammas=tuple(gammas))


class GammaRoute(IntEnum):
    """Independent combinatorial routes to the same coefficient list.

    ASC_NO_DA (1): decreasing-prefix words on n+1 letters with k ascents and
    no double ascent, weighted by minima count.
    PEAKS_HALVED (2): same words with k peaks, weight scaled by 2^(2k-n).
    NDD_DESCENTS (3): words on n letters with k descents and no interior
    descent-descent corner, weighted by right-to-left minima.
    """

    ASC_NO_DA = 1
    PEAKS_HALVED = 2
    NDD_DESCENTS = 3


# each route's class and exponent map: the coefficient index is the exponent
# of the marker k, the weight that of al, and None drops a word
_CLASS_ROUTES = {
    GammaRoute.ASC_NO_DA: (
        PermClass.PRW, lambda s: None if s.double_asc else {"k": s.asc, "al": s.weight}
    ),
    GammaRoute.PEAKS_HALVED: (PermClass.PRW, lambda s: {"k": s.peaks, "al": s.weight}),
    GammaRoute.NDD_DESCENTS: (PermClass.NDD_INTERIOR, lambda s: {"k": s.des, "al": s.rlmin}),
}


def _check_n(owner: str, n: int) -> None:
    """The one range check of the coefficient routes: a plain int n >= 0."""
    _require_ints(owner, n=n)
    if n < 0:
        raise ValueOutOfRangeError(f"n must be at least 0, got {n}")


def gamma_from_class(route: GammaRoute, n: int) -> list:
    """Coefficient list gamma_0..gamma_floor(n/2) computed by enumeration.

    >>> [str(g) for g in gamma_from_class(GammaRoute.NDD_DESCENTS, 4)][2]
    '3*al^2 + 2*al'
    """
    route = GammaRoute(route)
    _check_n("gamma_from_class", n)
    tag, exponents = _CLASS_ROUTES[route]
    rows = profile_sum(tag, letters(tag, n), exponents).coefficients(["k"])
    gammas = [rows.get((k,), MultiPoly.zero()) for k in range(n // 2 + 1)]
    if route is GammaRoute.PEAKS_HALVED:
        return [g * Fraction(1, 2 ** (n - 2 * k)) for k, g in enumerate(gammas)]
    return gammas


def _row(compute):
    """A ``ROUTES`` row: ``_check_n``, one message for every row, then ``compute``."""

    def row(n: int) -> list:
        _check_n("gamma", n)
        return compute(n)

    return row


ROUTES = {str(r.value): _row(lambda n, r=r: gamma_from_class(r, n)) for r in GammaRoute}
ROUTES["expand"] = _row(lambda n: list(gamma_expand(build(EnumeratorKind.BSE, n).value).gammas))
