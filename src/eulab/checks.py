"""Registry of exhaustively verifiable identities.

Every check computes both sides of one identity by independent routes and
compares exactly; the report carries a PASS/FAIL verdict and, on failure,
the first counterexample or the two mismatched polynomials.  Checks never
abort the suite on a mathematical mismatch; resource-cap violations do
propagate, since they are environmental rather than mathematical.

A run function knows nothing of the report format: it returns its PASS
witness (a dict, or ``None``) and signals a mismatch with
``raise Mismatch(**witness)``.  ``verify`` validates the parameters, runs
the function and builds the report from the arguments it ran with.

Each registry entry is data: a name, a summary, a run function, a size
range ``lo..hi`` and the run function's parameter names, in order (``n``
alone unless the row says otherwise; a test holds each row to its run
function's signature).  The parameter grid of a row is the ``_GRIDS`` entry
of its parameter names, swept over ``lo..hi``.  ``max_n``, when given,
replaces ``hi``.  ``lo`` is also a floor: ``verify`` rejects an ``n`` below
it before the check runs.

There are two tables.  ``REGISTRY`` holds the checks that ``verify_all``
sweeps; its report list is pinned, so it does not grow.  ``PROOFS`` holds
the rows that ``verify_proofs`` runs, each once: identities that hold for
every size by a finite argument, or a fast route checked against its
enumeration oracle.  Names are unique across the two, and ``verify`` runs a
row of either.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from fractions import Fraction
from functools import cache, partial
from math import comb
from typing import Callable, Iterator, Mapping, NamedTuple

from .action import _has_double_descent, _representative, _walk
from .bijection import _mirror
from .enumerators import (
    KINDS,
    EnumeratorKind,
    alternating_weight,
    build,
    euler_number,
    profile_counts,
    profile_sum,
    stirling_eulerian,
)
from .errors import (
    NonzeroResidualError,
    NotHomogeneousError,
    NotSymmetricError,
    RepresentativeError,
    UnknownCheckError,
    ValueOutOfRangeError,
)
from .gamma import ROUTES, basis_sum, gamma_expand
from .grammar import _slot_labels, builtin, derive
from .perms import (
    DOUBLE_ASC,
    DOUBLE_DESC,
    PermClass,
    _check_cap,
    _classify,
    _in_class,
    _is_prefix_decreasing,
    _require_ints,
    _stats,
    class_size,
    enumerate_class,
    format_perm,
    is_prefix_decreasing,
    letters,
    lrmin_values,
    rlmin_values,
)
from .poly import MultiPoly, monomial_sum, poly_sum

_MATH_FAILURES = (
    NonzeroResidualError,
    NotHomogeneousError,
    NotSymmetricError,
    RepresentativeError,
)

# the exponent maps of the enumerator kinds, reused by the per-word sums
# below, and (exponent map, peak factor, double-ascent factor) of each basis
# alphabet.  Peaks, descents and ascents need no square roots: des = peaks +
# double descents and asc = peaks + double ascents, so a word weighs
# (u v w)^peaks v^dd w^da.
_DES_ASC = KINDS[EnumeratorKind.SE].exponents
_REFINED = KINDS[EnumeratorKind.REFINED].exponents
_u1, _u2, _u3, _u4, _x, _y, _u, _v, _w = map(MultiPoly.var, "u1 u2 u3 u4 x y u v w".split())
_REFINED_BASIS = (_REFINED, _u1 * _u2, _u3 + _u4)
_DES_ASC_BASIS = (_DES_ASC, _x * _y, _x + _y)
_PEAK_BASIS = (lambda s: {"u": s.peaks, "v": s.des, "w": s.asc, "al": s.weight},
               _u * _v * _w, _v + _w)


class Mismatch(Exception):
    """A check's two routes disagree; the keyword arguments are the FAIL
    witness.  ``verify`` turns it into a report."""

    def __init__(self, **witness):
        super().__init__(witness)
        self.witness = witness


def _json_copy(value):
    """A copy of JSON-shaped data (dicts, lists and scalars) that shares
    no dict or list with ``value``.  ``copy.deepcopy`` would add the
    ``copy`` and ``weakref`` modules to every ``import eulab``."""
    if isinstance(value, dict):
        return {k: _json_copy(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_json_copy(v) for v in value]
    return value


class CheckReport(NamedTuple):
    check: str
    params: dict
    verdict: str  # "PASS" or "FAIL"
    witness: dict | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    def to_json(self) -> dict:
        """A copy that shares no dict or list with the report."""
        return _json_copy(self._asdict())

    @classmethod
    def from_json(cls, payload: Mapping) -> "CheckReport":
        return cls(
            check=str(payload["check"]),
            params=dict(payload["params"]),
            verdict=str(payload["verdict"]),
            witness=dict(payload["witness"]) if payload.get("witness") is not None else None,
        )

    def line(self) -> str:
        bits = " ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.verdict} {self.check}" + (f" {bits}" if bits else "")


def _agree(**sides: MultiPoly) -> None:
    """Raise ``Mismatch`` with both named sides rendered unless they are
    equal."""
    first, second = sides.values()
    if first != second:
        raise Mismatch(**{name: str(side) for name, side in sides.items()})


def _class_enumerator(klass: PermClass, n: int) -> MultiPoly:
    """x^des y^asc al^weight over a class: the bse enumerator over
    decreasing-prefix words, the se enumerator over S_n."""
    return build(EnumeratorKind.BSE if klass is PermClass.PRW else EnumeratorKind.SE, n).value


# -- individual checks -------------------------------------------------------


def _check_symmetry_gamma(n: int) -> dict:
    """The two-variable enumerator is symmetric and its basis coefficients
    are nonnegative integers."""
    gammas = ROUTES["expand"](n)
    for k, g in enumerate(gammas):
        if not all(c.denominator == 1 and c > 0 for _, c in g.terms()):
            raise Mismatch(k=k, gamma=str(g))
    return {"gamma": [str(g) for g in gammas]}


def _check_prw_g(n: int) -> dict:
    """The peeled coefficients match every other route of ``ROUTES``."""
    want = ROUTES["expand"](n)
    for route in [r for r in ROUTES if r != "expand"]:
        for k, (a, b) in enumerate(zip(want, ROUTES[route](n))):
            if a != b:
                raise Mismatch(route=route, k=k, expected=str(a), got=str(b))
    return {"gamma": [str(g) for g in want]}


def _in_basis(klass: PermClass, exponents, pair: MultiPoly, linear: MultiPoly, n: int) -> None:
    """A class's sum under ``exponents`` equals its expansion in the basis
    of ``pair`` and ``linear``, with the coefficients peeled from the class
    enumerator and the degree one less than the word length.  The registry
    binds all but ``n`` (see the basis alphabets above)."""
    m = letters(klass, n)
    gammas = gamma_expand(_class_enumerator(klass, n)).gammas
    _agree(lhs=profile_sum(klass, m, exponents), rhs=basis_sum(gammas, pair, linear, m - 1))


def _check_mainthm2_var(n: int) -> None:
    """The five-variable enumerator collapses to the three-variable one
    under u4 -> x+y-u3, u5 -> y+z-u3, u1 -> t, u2 -> x y / t, with u3 and t
    cancelling identically."""
    x, y, z, t, u3 = (MultiPoly.var(v) for v in ("x", "y", "z", "t", "u3"))
    q = build(EnumeratorKind.PTILDE, n).value.substitute(
        {"u4": x + y - u3, "u5": y + z - u3, "u1": t, "u2": x * y * t**-1}
    )
    leftover = q.variables() & {"u3", "t"}
    if leftover:
        raise Mismatch(uncancelled=sorted(leftover), got=str(q))
    _agree(lhs=q, rhs=build(EnumeratorKind.BSE_Z, n).value)


def _rule_set_agrees(rules: str, kind: EnumeratorKind, n: int) -> None:
    """n derivative steps of a built-in rule set produce the marker ``a``
    times the enumerator of ``kind``.  The registry binds all but ``n``.
    It returns ``None``, the PASS witness, and never the enumerator."""
    got = derive(builtin(rules), "a", n)
    _agree(derived=got, enumerated=MultiPoly.var("a") * build(kind, n).value)


def _check_grammar32(n: int) -> None:
    """Five-variable rule set: derivative, enumerator, and the slot-label
    monomial sum agree."""
    _rule_set_agrees("five-variable", EnumeratorKind.PTILDE, n)
    # generated words are valid, so they go straight to the label kernel
    words = enumerate_class(PermClass.PRW, letters(PermClass.PRW, n))
    counts = Counter(_slot_labels(w) for w in words)
    _agree(labeled=monomial_sum((c, lw.exponents()) for lw, c in counts.items()),
           enumerated=build(EnumeratorKind.PTILDE, n).value)


def _check_cgk_alpha(a: int, b: int) -> dict:
    """Binomial convolution of ascent-refined minima weights is symmetric
    in (a, b), summing from k = 1; the k = 0 convention term breaks the
    printed form when exactly one side is 1, which the report documents."""
    n = a + b
    al = MultiPoly.var("al")

    def side(j: int) -> MultiPoly:
        return poly_sum(
            al ** (n - k) * comb(n, k) * stirling_eulerian(k, j - 1) for k in range(1, n + 1)
        )

    lhs, rhs = side(a), side(b)
    _agree(lhs=lhs, rhs=rhs)
    rows = build(EnumeratorKind.BSE, n).value.substitute({"x": 1}).coefficients(["y"])
    sides = ((a, lhs), (b, rhs))
    for j, poly in sides:
        coef = rows.get((j,), MultiPoly.zero())
        if coef != poly:
            raise Mismatch(exponent=j, convolution=str(poly), coefficient=str(coef))
    # the k = 0 term, the empty word's: al^n at j = 1 and 0 above it
    as_lhs, as_rhs = (poly + al**n * stirling_eulerian(0, j - 1) for j, poly in sides)
    should_hold = (a == b) or (a > 1 and b > 1)
    if (as_lhs == as_rhs) != should_hold:
        raise Mismatch(
            note="k=0 convention behaved contrary to its documentation",
            as_printed_lhs=str(as_lhs),
            as_printed_rhs=str(as_rhs),
        )
    witness = {"both_sides": str(lhs)}
    if not should_hold:
        witness["convention"] = (
            "with the k=0 term (empty-word weight 1) the sides differ by al^n; "
            "the identity is stated from k >= 1"
        )
    return witness


def _check_secant(n: int) -> dict:
    """Evaluation at x = -1, y = 1: zero at odd n, alternating-word minima
    weights with sign at even n, and the half-weight link to the symmetric-
    group enumerator one size up (checked through n = 7)."""
    at = build(EnumeratorKind.BSE, n).value.substitute({"x": -1, "y": 1})
    _agree(value=at, expected=0 if n % 2 else (-1) ** (n // 2) * alternating_weight(n))
    if n <= 7:
        half = {"x": -1, "y": 1, "al": MultiPoly.var("al") * Fraction(1, 2)}
        _agree(value=at, half_weight=build(EnumeratorKind.SE, n + 1).value.substitute(half))
    alternating, euler = class_size(PermClass.ALT_DOWN_UP, n), euler_number(n)
    if alternating != euler:
        raise Mismatch(alternating=alternating, euler=euler)
    return {"value": str(at)}


def _orbit_tables(tag: PermClass, m: int) -> Iterator[tuple]:
    """Each word of the class on m letters free of double descents, with its
    orbit's toggle table.  No global set: after the last orbit, the orbit
    sizes must sum to the words streamed."""
    words = members = 0
    for words, w in enumerate(enumerate_class(tag, m), start=1):
        if not _has_double_descent(w):
            table = _walk(w)
            members += len(table)
            yield w, table
    if members != words:
        raise Mismatch(words=words, orbit_members=members)


_PIP_ALPHABETS = (_REFINED_BASIS, _DES_ASC_BASIS)


@cache  # orbits with equal (peaks, double_asc, weight) share one product, in every run
def _product(alphabet: int, peaks: int, double_asc: int, weight: int) -> MultiPoly:
    """The right side of ``pip`` for one orbit key in one of its two
    alphabets; each key is read off a word within the cap."""
    _, pair, linear = _PIP_ALPHABETS[alphabet]
    return pair**peaks * linear**double_asc * MultiPoly.monomial(1, {"al": weight})


def _check_pip(klass: str, n: int) -> dict:
    """Per-orbit product formula: each orbit's statistic sum collapses to a
    single product read off its double-descent-free member, in both the
    four-variable and the two-variable alphabets; the orbit totals recover
    the class enumerator.  The two sides are compared once per distinct
    orbit shape (key and profile multiset)."""
    tag = PermClass(klass)
    keys, shapes = Counter(), set()
    for r, table in _orbit_tables(tag, letters(tag, n)):
        # r alone is free of double descents, and no member leaves the class
        _representative(table, r)
        stray = [v for v in table if not _in_class(tag, v)]
        if stray:
            raise Mismatch(orbit_of=format_perm(r), escapes_to=format_perm(min(stray)))
        # orbit members are generated, hence valid: profile each one once,
        # and sum one monomial per distinct profile; the walk starts at r
        profiles = [_stats(w) for w in table]
        key = (profiles[0].peaks, profiles[0].double_asc, profiles[0].weight)
        keys[key] += 1
        counts = Counter(profiles)
        # the left side is a function of the profile multiset and the right
        # side of the key, so an orbit of a shape already matched holds too
        shape = (key, frozenset(counts.items()))
        if shape in shapes:
            continue
        for alphabet, (exponents, _, _) in enumerate(_PIP_ALPHABETS):
            lhs = monomial_sum((c, exponents(s)) for s, c in counts.items())
            rhs = _product(alphabet, *key)
            if lhs != rhs:
                raise Mismatch(representative=format_perm(r), lhs=str(lhs), rhs=str(rhs))
        shapes.add(shape)
    total = poly_sum(c * _product(1, *key) for key, c in keys.items())
    _agree(orbit_total=total, enumerator=_class_enumerator(tag, n))
    return {"orbits": sum(keys.values())}


def _check_gamm(klass: str, n: int) -> None:
    """The class enumerator equals the double-descent-free sum
    (xy)^des (x+y)^(deg - 2 des) al^weight, deg the word length minus 1."""
    tag = PermClass(klass)
    m = letters(tag, n)
    deg = m - 1

    def ddfree(s):
        # t marks the power of x + y until the sum is formed
        if s.double_desc:
            return None
        return {"x": s.des, "y": s.des, "t": deg - 2 * s.des, "al": s.weight}

    acc = profile_sum(tag, m, ddfree).substitute({"t": _x + _y})
    _agree(ddfree_sum=acc, enumerator=_class_enumerator(tag, n))


# (image field, word field) pairs the mirror must match: descents and
# ascents swap, double descents and double ascents swap, and the minima
# total (``weight``) stays
_MIRROR_SWAPS = (("des", "asc"), ("asc", "des"), ("double_asc", "double_desc"),
                 ("double_desc", "double_asc"), ("weight", "weight"))


def _check_bijection(n: int) -> None:
    """The mirror is an involution on decreasing-prefix words, swaps
    descents with ascents and double descents with double ascents, and
    preserves the minima total; the induced distribution is symmetric."""
    profiles = Counter()
    for w in enumerate_class(PermClass.PRW, n):
        # w was generated, so it goes straight to the kernels; the public
        # is_prefix_decreasing validates p before any kernel reads it
        p = _mirror(w)
        if not is_prefix_decreasing(p):
            reason = "image is not decreasing-prefix"
        elif _mirror(p) != w:
            reason = "not an involution"
        else:
            sw, sp = _stats(w), _stats(p)
            profiles[sw] += 1
            reason = next((f"{a} of the image is not {b} of the word" for a, b in _MIRROR_SWAPS
                           if getattr(sp, a) != getattr(sw, b)), None)
        if reason:
            raise Mismatch(word=format_perm(w), image=format_perm(p), reason=reason)
    dist = monomial_sum((c, _DES_ASC(s)) for s, c in profiles.items())
    if not dist.is_symmetric_in("x", "y"):
        raise Mismatch(distribution=str(dist))


# letter class -> class of the image letter; a peak or a valley is fixed.
# The toggled letter is a left-to-right minimum of the word where it is a
# double descent exactly when it is a right-to-left minimum of the word
# where it is a double ascent.
_FLIPS = {DOUBLE_ASC: DOUBLE_DESC, DOUBLE_DESC: DOUBLE_ASC}


def _check_group_action(n: int) -> None:
    """Toggles are commuting involutions with the documented class flips,
    they preserve peak count, minima total, and the decreasing-prefix
    class, and orbits have size 2^(da+dd) with one double-descent-free
    member."""
    for r, table in _orbit_tables(PermClass.SYM, n):
        # orbit members are generated, hence valid: each goes through the kernels
        # and the minima functions once, and every toggle is read from the table
        facts = {w: (_stats(w), _classify(w), _is_prefix_decreasing(w), lrmin_values(w),
                     rlmin_values(w)) for w in table}
        for w, images in table.items():
            sw, kinds_w, dec_w, lrmin_w, rlmin_w = facts[w]
            for x, v in enumerate(images, start=1):
                sv, kinds_v, dec_v, lrmin_v, rlmin_v = facts[v]
                image_kind = _FLIPS.get(kinds_w[w.index(x)])
                if image_kind is None:
                    flipped = v == w
                else:
                    lr, rl = (lrmin_v, rlmin_w) if image_kind == DOUBLE_DESC else (lrmin_w, rlmin_v)
                    flipped = kinds_v[v.index(x)] == image_kind and (x in lr) == (x in rl)
                if table[v][x - 1] != w:
                    reason = "not an involution"
                elif sv.peaks != sw.peaks or sv.weight != sw.weight:
                    reason = "peaks or minima total not preserved"
                elif dec_w and not dec_v:
                    reason = "left the decreasing-prefix class"
                elif not flipped:
                    reason = "letter class did not flip as documented"
                else:
                    continue
                raise Mismatch(word=format_perm(w), letter=x, reason=reason)
        for w, images in table.items():
            for x in range(1, n + 1):
                for y in range(x + 1, n + 1):
                    if table[images[x - 1]][y - 1] != table[images[y - 1]][x - 1]:
                        raise Mismatch(word=format_perm(w), letters=[x, y],
                                       reason="toggles do not commute")
        _representative(table, r)
        expected = 2 ** facts[r][0].double_asc
        if len(table) != expected:
            raise Mismatch(representative=format_perm(r), size=len(table), expected=expected)


# class -> the most letters on which ``verify_all`` reads its profile table:
# decreasing-prefix words of size index 8 have 9 letters
_PROFILE_TOPS = {**dict.fromkeys(PermClass, 8), PermClass.PRW: 9}


def _check_profile_rules() -> dict:
    """The profile table of every class, read off its rule set, equals the
    table counted over the class's enumerated words, on 0 letters up to the
    class's ``_PROFILE_TOPS`` entry.  A mismatch names the least profile
    whose two counts differ."""
    for tag, top in _PROFILE_TOPS.items():
        for m in range(top + 1):
            derived = dict(profile_counts(tag, m))
            # enumerated words are valid, so they go straight to the kernel
            enumerated = Counter(_stats(w) for w in enumerate_class(tag, m))
            wrong = [s for s in derived.keys() | enumerated.keys()
                     if derived.get(s, 0) != enumerated[s]]
            if wrong:
                s = min(wrong)
                raise Mismatch(**{"class": tag.value, "letters": m, "profile": s._asdict(),
                                  "derived": derived.get(s, 0), "enumerated": enumerated[s]})
    return {"tables": sum(top + 1 for top in _PROFILE_TOPS.values())}


# -- registry ----------------------------------------------------------------

CLASSES = (PermClass.SYM.value, PermClass.PRW.value)

# a row's parameter names -> (its parameter dicts for sizes lo..top, in run
# order; the one-line description of that sweep).  A pair (a, b) has
# a, b >= 1 and lo <= a + b <= top; ``klass`` sweeps ``CLASSES`` outermost;
# a row with no parameter runs once and reads no size.  A row whose names
# are not a key here has no sweep.
_GRIDS = {
    (): (lambda lo, top: [{}], lambda lo, top: "once"),
    ("n",): (lambda lo, top: [{"n": k} for k in range(lo, top + 1)],
             lambda lo, top: f"n={lo}..{top}"),
    ("a", "b"): (lambda lo, top: [{"a": a, "b": s - a} for s in range(lo, top + 1)
                                  for a in range(1, s)],
                 lambda lo, top: f"a,b>=1, a+b<={top}"),
    ("klass", "n"): (lambda lo, top: [{"klass": c, "n": k} for c in CLASSES
                                      for k in range(lo, top + 1)],
                     lambda lo, top: f"class in ({', '.join(CLASSES)}), n={lo}..{top}"),
}


class CheckDef(NamedTuple):
    """One row of ``REGISTRY`` or ``PROOFS``; its grid is the ``_GRIDS``
    entry of its ``params``."""

    name: str
    run: Callable[..., dict | None]
    lo: int
    hi: int
    summary: str
    params: tuple = ("n",)  # the run function's parameter names, in order

    def sweep(self, max_n: int | None = None) -> list:
        """Parameter dicts of the default sweep, in run order."""
        return _GRIDS[self.params][0](self.lo, self.hi if max_n is None else max_n)

    def describe(self, max_n: int | None = None) -> str:
        """One-line description of the default sweep."""
        return _GRIDS[self.params][1](self.lo, self.hi if max_n is None else max_n)


REGISTRY: dict = {
    d.name: d
    for d in (
        # name, run, lo, hi, summary, params (default n alone)
        CheckDef("symmetry-gamma", _check_symmetry_gamma, 1, 8,
                 "two-variable enumerator: symmetry and nonnegative integer basis coefficients"),
        CheckDef("prw-g", _check_prw_g, 1, 8,
                 "peeled coefficients equal all three enumeration routes"),
        CheckDef("mainthm2", partial(_in_basis, PermClass.PRW, *_REFINED_BASIS), 1, 8,
                 "refined enumerator over decreasing-prefix words in the peeled basis"),
        CheckDef("ji-gam", partial(_in_basis, PermClass.SYM, *_REFINED_BASIS), 1, 8,
                 "refined enumerator over the symmetric group in the peeled basis"),
        CheckDef("mainthm2-var", _check_mainthm2_var, 1, 7,
                 "five-variable enumerator collapses to the three-variable one"),
        CheckDef("grammar-31",
                 partial(_rule_set_agrees, "two-variable", EnumeratorKind.BSE_Z), 1, 7,
                 "two-variable rule-set derivative equals the marked enumerator"),
        CheckDef("grammar-32", _check_grammar32, 1, 7,
                 "five-variable rule-set derivative, enumerator, and slot labels agree"),
        CheckDef("des-pk", partial(_in_basis, PermClass.PRW, *_PEAK_BASIS), 1, 8,
                 "peak/descent/ascent joint distribution in the peeled basis"),
        CheckDef("cgk-alpha", _check_cgk_alpha, 2, 8,
                 "binomial convolution of ascent-refined minima weights is symmetric", ("a", "b")),
        CheckDef("secant", _check_secant, 1, 8,
                 "evaluation at (-1, 1): alternating words, signs, half-weight link"),
        CheckDef("pip", _check_pip, 1, 7,
                 "per-orbit product formula and orbit totals", ("klass", "n")),
        CheckDef("gamm", _check_gamm, 1, 7,
                 "class enumerator equals its double-descent-free expansion", ("klass", "n")),
        CheckDef("bijection", _check_bijection, 1, 8,
                 "mirror involution: statistic swaps and minima preservation"),
        CheckDef("group-action", _check_group_action, 1, 7,
                 "toggles: involution, commutation, class flips, orbit structure"),
    )
}

PROOFS: dict = {
    d.name: d
    for d in (
        # name, run, lo, hi (unread: each row runs once), summary, params
        CheckDef("profile-rules", _check_profile_rules, 0, 0,
                 "every class's profile table from its rule set equals the enumerated one, "
                 "on 0 to 8 letters (9 for prw)", ()),
    )
}


def verify(name: str, **params) -> CheckReport:
    """Run one named check, a row of ``REGISTRY`` or of ``PROOFS``; the
    report's params are the arguments it ran with, in the order the row
    declares them, and every one is required.
    Mathematical mismatches come back as FAIL reports; unknown names,
    parameters that the row does not declare, a missing one, parameters
    that are not plain ints, classes outside ``CLASSES``, an ``n`` below the
    check's ``lo`` and an ``a`` or ``b`` below 1 raise, and so does any
    other error from the check body."""
    defn = REGISTRY.get(name) or PROOFS.get(name)
    if defn is None:
        known = ", ".join([*REGISTRY, *PROOFS])
        raise UnknownCheckError(f"no check named {name!r} (known: {known})")
    missing = [p for p in defn.params if p not in params]
    unknown = [p for p in params if p not in defn.params]
    if missing or unknown:
        problem = (f"missing a required argument: {missing[0]!r}" if missing
                   else f"got an unexpected keyword argument {unknown[0]!r}")
        raise ValueOutOfRangeError(f"bad parameters for check {name!r}: {problem}")
    args = {p: params[p] for p in defn.params}
    _require_ints(f"check {name!r}", **{k: args[k] for k in ("n", "a", "b") if k in args})
    if "klass" in args and args["klass"] not in CLASSES:
        known = ", ".join(CLASSES)
        raise ValueOutOfRangeError(
            f"check {name!r} takes a class in ({known}), not {args['klass']!r}")
    if "n" in args and args["n"] < defn.lo:
        raise ValueOutOfRangeError(f"check {name!r} takes n >= {defn.lo}, got n={args['n']}")
    if min(args.get("a", 1), args.get("b", 1)) < 1:
        raise ValueOutOfRangeError(f"need a, b >= 1, got a={args['a']}, b={args['b']}")
    try:
        verdict, witness = "PASS", defn.run(**args)
    except Mismatch as exc:
        verdict, witness = "FAIL", exc.witness
    except _MATH_FAILURES as exc:
        verdict, witness = "FAIL", {"error": exc.code, "message": exc.message}
    return CheckReport(name, args, verdict, witness or None)


# ``_spread`` forks only while ``verify`` is this function: one replaced from
# outside (a wrapper that counts or records calls, a test double) must see
# every run, in this process
_OWN_VERIFY = verify


def verify_all(max_n: int | None = None, seed: int = 0) -> list:
    """Run every registered check over its default parameter sweep
    (bounded by ``max_n`` when given).  Returns one aggregated report per
    check, in registry order.  Arguments that are not ints (``max_n`` may
    be ``None``), a ``max_n`` past the enumeration cap and a ``max_n`` that
    leaves some check no runs are rejected before any check runs.  The cap
    is checked on the most letters any class takes at size ``max_n``: size n
    of ``prw`` is n + 1 letters.  ``seed`` reaches no check, since no check
    samples; it is still accepted, as an int, for existing callers and goes
    with ROADMAP item 15.  This process runs the sweeps in registry order,
    while one forked worker passes runs from the far end of the table (see
    ``_run_table``); it skips only the runs the worker passed, so the
    reports, and any error raised, are those of the serial loop."""
    _require_ints("verify_all", **({} if max_n is None else {"max_n": max_n}), seed=seed)
    if max_n is not None:
        _check_cap(max(letters(tag, max_n) for tag in PermClass))
    return _run_table(REGISTRY, max_n)


def verify_proofs() -> list:
    """Run every row of ``PROOFS`` once; one report per row, in table
    order, aggregated as ``verify_all`` aggregates its sweeps."""
    return _run_table(PROOFS, None)


def _run_table(table: dict, max_n: int | None) -> list:
    """One aggregated report per row of a table: PASS with the number of
    runs, or the first FAIL with its parameters.  A ``max_n`` that leaves
    some row no runs is rejected before any row runs, and before any fork.

    This process is the serial loop: it goes through the runs once, in
    table order, each row up to its first FAIL, and runs each run itself,
    setting its byte first, unless the worker of ``_spread`` has set the
    byte for a PASS.  So the report list, its FAIL witnesses and ``runs``
    counts, and the error raised, with its traceback, are those of one
    process running the rows in order.  Once the loop ends, by a return or
    a raise, the worker is killed, whatever run it is on, and reaped: no
    result of its is read after that."""
    grids = {name: defn.sweep(max_n) for name, defn in table.items()}
    empty = [name for name, grid in grids.items() if not grid]
    if empty:
        raise ValueOutOfRangeError(f"max_n={max_n} leaves no runs for {', '.join(empty)}")
    runs = [(name, params) for name, grid in grids.items() for params in grid]
    workers = []  # bound for the finally
    try:
        passed = _spread(runs, workers)
        out, first = [], 0
        for defn in table.values():
            sweep = {"sweep": defn.describe(max_n)}
            grid = grids[defn.name]
            for i, params in enumerate(grid, first):
                if passed[i]:
                    continue
                passed[i] = True  # the worker stops when it reaches this run
                report = verify(defn.name, **params)
                if not report.passed:
                    witness = {"params": report.params, **(report.witness or {})}
                    out.append(CheckReport(defn.name, sweep, "FAIL", witness))
                    break
            else:
                out.append(CheckReport(defn.name, sweep, "PASS", {"runs": len(grid)}))
            first += len(grid)
        return out
    finally:
        for pid in workers:
            os.kill(pid, 9)  # SIGKILL, 9 on every POSIX system; ``import signal`` costs 0.6 ms
            os.waitpid(pid, 0)


def _spread(runs: list, workers: list):
    """One byte per run of ``runs``, shared with one forked worker, whose
    pid goes on ``workers``.  The worker goes through the runs from the
    last one backwards and sets the byte of each run that passes.  It
    leaves with ``os._exit`` at the first byte set already, which only
    ``_run_table`` can have set, once it reached that run, or at the first
    run that raises, which ``_run_table`` meets itself.  Nothing forks, and
    the bytes are a ``bytearray`` of zeros, when this process may use one
    CPU only, the table has one run, the platform has no ``fork``, another
    thread runs or ``verify`` has been replaced (``_OWN_VERIFY``)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = sys.modules.get("threading")
    if (min(cpus or 1, len(runs)) < 2 or not hasattr(os, "fork") or verify is not _OWN_VERIFY
            or (threads and threads.active_count() > 1)):
        return bytearray(len(runs))
    import mmap  # here, so that ``import eulab`` loads no module for it

    passed = mmap.mmap(-1, len(runs))
    try:
        pid = os.fork()
    except OSError:  # no process to spare: this process runs every run
        return passed
    if not pid:
        try:
            for i in reversed(range(len(runs))):
                if passed[i]:  # the main process has reached run i
                    break
                name, params = runs[i]
                passed[i] = verify(name, **params).passed
        finally:  # a worker never returns into the caller's code
            os._exit(0)
    workers.append(pid)
    return passed
