"""Expansion of symmetric homogeneous polynomials in the basis
``(xy)^k (x+y)^(n-2k)`` and its three combinatorial realizations.

``gamma_expand`` peels coefficients: gamma_k is the coefficient of
``x^k y^(n-k)`` in what remains after subtracting the lower basis elements,
and the final residual must vanish exactly.

``gamma_from_class`` computes the same coefficient lists directly from
permutation classes, by three different filters (documented on the enum),
without touching the polynomial route.
"""

from __future__ import annotations

from enum import IntEnum
from fractions import Fraction
from dataclasses import dataclass

from .errors import NonzeroResidualError, NotSymmetricError, ValueOutOfRangeError
from .perms import PermClass, enumerate_class, letters, stats
from .poly import MultiPoly, poly_sum


@dataclass(frozen=True)
class GammaExpansion:
    """Coefficients gamma_0..gamma_floor(n/2), each a polynomial in the
    variables left after removing x and y."""

    n: int
    x: str
    y: str
    gammas: tuple  # tuple[MultiPoly, ...]

    def reconstruct(self) -> MultiPoly:
        vx, vy = MultiPoly.var(self.x), MultiPoly.var(self.y)
        total = MultiPoly.zero()
        for k, g in enumerate(self.gammas):
            total = total + g * (vx * vy) ** k * (vx + vy) ** (self.n - 2 * k)
        return total


def gamma_expand(p: MultiPoly, x: str = "x", y: str = "y") -> GammaExpansion:
    """Expand ``p``, homogeneous in {x, y} and symmetric under their swap,
    in the basis ``(xy)^k (x+y)^(n-2k)``.

    >>> from .poly import parse_poly
    >>> e = gamma_expand(parse_poly("al^2*(x+y)^2 + al*x*y"))
    >>> [str(g) for g in e.gammas]
    ['al^2', 'al']
    """
    n = p.homogeneous_degree_in([x, y])
    if not p.is_symmetric_in(x, y):
        raise NotSymmetricError(f"not symmetric in {x!r}, {y!r}: {p}")
    vx, vy = MultiPoly.var(x), MultiPoly.var(y)
    residual = p
    gammas = []
    for k in range(n // 2 + 1):
        g = residual.coefficient({x: k, y: n - k})
        gammas.append(g)
        residual = residual - g * (vx * vy) ** k * (vx + vy) ** (n - 2 * k)
    if not residual.is_zero():
        raise NonzeroResidualError(f"residual {residual} after peeling {p}")
    return GammaExpansion(n=n, x=x, y=y, gammas=tuple(gammas))


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


def gamma_from_class(route: GammaRoute, n: int, cap: int | None = None) -> list:
    """Coefficient list gamma_0..gamma_floor(n/2) computed by enumeration.

    >>> [str(g) for g in gamma_from_class(GammaRoute.NDD_DESCENTS, 4)][2]
    '3*al^2 + 2*al'
    """
    route = GammaRoute(route)
    if n < 1:
        raise ValueOutOfRangeError(f"n must be at least 1, got {n}")
    buckets: list[list[MultiPoly]] = [[] for _ in range(n // 2 + 1)]
    if route is GammaRoute.NDD_DESCENTS:
        for w in enumerate_class(PermClass.NDD_INTERIOR, n, cap):
            s = stats(w)
            if s.des <= n // 2:
                buckets[s.des].append(MultiPoly.monomial(1, {"al": s.rlmin}))
        return [poly_sum(b) for b in buckets]
    members = enumerate_class(PermClass.PRW, letters(PermClass.PRW, n), cap)
    if route is GammaRoute.ASC_NO_DA:
        for w in members:
            s = stats(w)
            if s.double_asc == 0 and s.asc <= n // 2:
                buckets[s.asc].append(MultiPoly.monomial(1, {"al": s.weight}))
        return [poly_sum(b) for b in buckets]
    # PEAKS_HALVED
    for w in members:
        s = stats(w)
        buckets[s.peaks].append(MultiPoly.monomial(1, {"al": s.weight}))
    return [
        poly_sum(b) * Fraction(1, 2 ** (n - 2 * k)) for k, b in enumerate(buckets)
    ]
