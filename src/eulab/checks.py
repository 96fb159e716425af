"""Registry of exhaustively verifiable identities.

Every check computes both sides of one identity by independent routes and
compares exactly; the report carries a PASS/FAIL verdict and, on failure,
the first counterexample or the two mismatched polynomials.  Checks never
abort the suite on a mathematical mismatch; resource-cap violations do
propagate, since they are environmental rather than mathematical.

Each registry entry is data: a name, a summary, a run function and a size
range ``lo..hi``.  The parameter grid follows from the run function's own
signature, one rule per parameter name:

* ``n`` sweeps ``lo..hi``;
* ``a``, ``b`` sweep every pair with a, b >= 1 and ``lo <= a + b <= hi``;
* ``klass`` sweeps ``CLASSES`` (outermost), each with the whole ``n`` range;
* ``seed`` is not swept; it takes the seed of the sweep.

``max_n``, when given, replaces ``hi``.  ``lo`` is also a floor: ``verify``
rejects an ``n`` below it before the check runs.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass
from functools import cache, partial
from math import comb
from typing import Callable, Mapping

from .action import _toggle, orbit, toggle, toggle_many
from .bijection import mirror
from .enumerators import (
    KINDS,
    EnumeratorKind,
    alternating_weight,
    build,
    euler_number,
    half_weight,
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
from .gamma import GammaRoute, basis_sum, gamma_expand, gamma_from_class
from .grammar import builtin, derive, slot_labels
from .perms import (
    DOUBLE_ASC,
    DOUBLE_DESC,
    PEAK,
    VALLEY,
    PermClass,
    _classify,
    _is_prefix_decreasing,
    _stats,
    class_size,
    enumerate_class,
    format_perm,
    is_prefix_decreasing,
    letters,
    lrmin_values,
    rlmin_values,
    stats,
)
from .poly import MultiPoly, poly_sum

_MATH_FAILURES = (
    NonzeroResidualError,
    NotHomogeneousError,
    NotSymmetricError,
    RepresentativeError,
)

# exponent maps of the enumerator kinds, reused by the per-word sums below
_DES_ASC = KINDS[EnumeratorKind.SE].exponents
_REFINED = KINDS[EnumeratorKind.REFINED].exponents


@dataclass(frozen=True)
class CheckReport:
    check: str
    params: dict
    verdict: str  # "PASS" or "FAIL"
    witness: dict | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "params": dict(self.params),
            "verdict": self.verdict,
            "witness": dict(self.witness) if self.witness is not None else None,
        }

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


def _pass(check: str, params: dict, **witness) -> CheckReport:
    return CheckReport(check, params, "PASS", witness or None)


def _fail(check: str, params: dict, **witness) -> CheckReport:
    return CheckReport(check, params, "FAIL", witness or None)


def _class_enumerator(klass: PermClass, n: int) -> MultiPoly:
    """x^des y^asc al^weight over a class: the bse enumerator over
    decreasing-prefix words, the se enumerator over S_n."""
    return profile_sum(klass, letters(klass, n), _DES_ASC)


# -- individual checks -------------------------------------------------------


def _check_symmetry_gamma(n: int) -> CheckReport:
    """The two-variable enumerator is symmetric and its basis coefficients
    are nonnegative integers."""
    params = {"n": n}
    value = build(EnumeratorKind.BSE, n).value
    if not value.is_symmetric_in("x", "y"):
        return _fail("symmetry-gamma", params, polynomial=str(value))
    expansion = gamma_expand(value)
    for k, g in enumerate(expansion.gammas):
        if not all(c.denominator == 1 and c > 0 for _, c in g.terms()):
            return _fail("symmetry-gamma", params, k=k, gamma=str(g))
    return _pass("symmetry-gamma", params, gamma=[str(g) for g in expansion.gammas])


def _check_prw_g(n: int) -> CheckReport:
    """The peeled coefficients match all three enumeration routes."""
    params = {"n": n}
    want = gamma_expand(build(EnumeratorKind.BSE, n).value).gammas
    for route in GammaRoute:
        got = gamma_from_class(route, n)
        for k, (a, b) in enumerate(zip(want, got)):
            if a != b:
                return _fail(
                    "prw-g", params, route=route.name, k=k, expected=str(a), got=str(b)
                )
    return _pass("prw-g", params, gamma=[str(g) for g in want])


def _refined_in_basis(check: str, klass: PermClass, n: int) -> CheckReport:
    """Refined four-variable enumerator over a class equals its basis
    expansion, with the coefficients peeled from the class enumerator and
    the degree one less than the word length.  The registry binds ``check``
    and ``klass``: mainthm2 over decreasing-prefix words, ji-gam over S_n."""
    params = {"n": n}
    lhs = build(EnumeratorKind.REFINED, n, klass=klass).value
    gammas = gamma_expand(_class_enumerator(klass, n)).gammas
    u1, u2, u3, u4 = (MultiPoly.var(v) for v in ("u1", "u2", "u3", "u4"))
    rhs = basis_sum(gammas, u1 * u2, u3 + u4, letters(klass, n) - 1)
    if lhs != rhs:
        return _fail(check, params, lhs=str(lhs), rhs=str(rhs))
    return _pass(check, params)


def _check_mainthm2_var(n: int) -> CheckReport:
    """The five-variable enumerator collapses to the three-variable one
    under u4 -> x+y-u3, u5 -> y+z-u3, u1 -> t, u2 -> x y / t, with u3 and t
    cancelling identically."""
    params = {"n": n}
    x, y, z, t, u3 = (MultiPoly.var(v) for v in ("x", "y", "z", "t", "u3"))
    q = (
        build(EnumeratorKind.PTILDE, n)
        .value.substitute("u4", x + y - u3)
        .substitute("u5", y + z - u3)
        .substitute("u1", t)
        .substitute("u2", x * y * t**-1)
    )
    leftover = q.variables() & {"u3", "t"}
    if leftover:
        return _fail("mainthm2-var", params, uncancelled=sorted(leftover), got=str(q))
    want = build(EnumeratorKind.BSE_Z, n).value
    if q != want:
        return _fail("mainthm2-var", params, lhs=str(q), rhs=str(want))
    return _pass("mainthm2-var", params)


def _check_grammar31(n: int) -> CheckReport:
    """n derivative steps of the two-variable rule set produce the marker
    times the three-variable enumerator."""
    params = {"n": n}
    got = derive(builtin("two-variable"), "a", n)
    want = MultiPoly.var("a") * build(EnumeratorKind.BSE_Z, n).value
    if got != want:
        return _fail("grammar-31", params, derived=str(got), enumerated=str(want))
    return _pass("grammar-31", params)


def _check_grammar32(n: int) -> CheckReport:
    """Five-variable rule set: derivative, enumerator, and the slot-label
    monomial sum agree."""
    params = {"n": n}
    got = derive(builtin("five-variable"), "a", n)
    value = build(EnumeratorKind.PTILDE, n).value
    want = MultiPoly.var("a") * value
    if got != want:
        return _fail("grammar-32", params, derived=str(got), enumerated=str(want))
    words = enumerate_class(PermClass.PRW, letters(PermClass.PRW, n))
    labeled = poly_sum(slot_labels(w).monomial() for w in words)
    if labeled != value:
        return _fail("grammar-32", params, labeled=str(labeled), enumerated=str(value))
    return _pass("grammar-32", params)


def _check_des_pk(n: int) -> CheckReport:
    """Peak/descent/ascent joint distribution in the peeled basis, with no
    square roots: des = peaks + double descents, asc = peaks + double
    ascents."""
    params = {"n": n}
    lhs = profile_sum(
        PermClass.PRW,
        letters(PermClass.PRW, n),
        lambda s: {"u": s.peaks, "v": s.des, "w": s.asc, "al": s.weight},
    )
    gammas = gamma_expand(build(EnumeratorKind.BSE, n).value).gammas
    u, v, w = (MultiPoly.var(c) for c in ("u", "v", "w"))
    rhs = basis_sum(gammas, u * v * w, v + w, n)
    if lhs != rhs:
        return _fail("des-pk", params, lhs=str(lhs), rhs=str(rhs))
    return _pass("des-pk", params)


def _check_cgk_alpha(a: int, b: int) -> CheckReport:
    """Binomial convolution of ascent-refined minima weights is symmetric
    in (a, b), summing from k = 1; the k = 0 convention term breaks the
    printed form when exactly one side is 1, which the report documents."""
    params = {"a": a, "b": b}
    if a < 1 or b < 1:
        raise ValueOutOfRangeError(f"need a, b >= 1, got a={a}, b={b}")
    n = a + b
    al = MultiPoly.var("al")

    def side(j: int) -> MultiPoly:
        return poly_sum(
            al ** (n - k) * comb(n, k) * stirling_eulerian(k, j - 1) for k in range(1, n + 1)
        )

    lhs, rhs = side(a), side(b)
    if lhs != rhs:
        return _fail("cgk-alpha", params, lhs=str(lhs), rhs=str(rhs))
    at_x1 = build(EnumeratorKind.BSE, n).value.substitute("x", 1)
    for j, poly in ((a, lhs), (b, rhs)):
        coef = at_x1.coefficient({"y": j})
        if coef != poly:
            return _fail(
                "cgk-alpha", params, exponent=j, convolution=str(poly), coefficient=str(coef)
            )
    extra = al**n
    as_lhs = lhs + (extra if a == 1 else 0)
    as_rhs = rhs + (extra if b == 1 else 0)
    as_printed_holds = as_lhs == as_rhs
    should_hold = (a == b) or (a > 1 and b > 1)
    if as_printed_holds != should_hold:
        return _fail(
            "cgk-alpha",
            params,
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
    return _pass("cgk-alpha", params, **witness)


def _check_secant(n: int) -> CheckReport:
    """Evaluation at x = -1, y = 1: zero at odd n, alternating-word minima
    weights with sign at even n, and the half-weight link to the symmetric-
    group enumerator one size up (checked through n = 7)."""
    params = {"n": n}
    at = build(EnumeratorKind.BSE, n).value.substitute("x", -1).substitute("y", 1)
    if n % 2:
        if not at.is_zero():
            return _fail("secant", params, value=str(at), expected="0")
    else:
        alt = alternating_weight(n)
        want = alt if (n // 2) % 2 == 0 else -alt
        if at != want:
            return _fail("secant", params, value=str(at), expected=str(want))
    if n <= 7:
        bigger = build(EnumeratorKind.SE, n + 1).value.substitute("x", -1).substitute("y", 1)
        if at != half_weight(bigger):
            return _fail(
                "secant", params, value=str(at), half_weight=str(half_weight(bigger))
            )
    if class_size(PermClass.ALT_DOWN_UP, n) != euler_number(n):
        return _fail(
            "secant",
            params,
            alternating=class_size(PermClass.ALT_DOWN_UP, n),
            euler=euler_number(n),
        )
    return _pass("secant", params, value=str(at))


def _orbit_partition(klass: PermClass, n: int):
    """Orbits of the toggle action restricted to a class, or a FAIL payload
    when the class is not closed under the action."""
    m = letters(klass, n)
    words = list(enumerate_class(klass, m))
    member_set = set(words)
    seen: set = set()
    orbits = []
    for w in words:
        if w in seen:
            continue
        orb = orbit(w)
        stray = set(orb.members) - member_set
        if stray:
            return None, {"orbit_of": format_perm(w), "escapes_to": format_perm(min(stray))}
        seen.update(orb.members)
        orbits.append(orb)
    return orbits, None


def _check_pip(klass: str, n: int) -> CheckReport:
    """Per-orbit product formula: each orbit's statistic sum collapses to a
    single product read off its double-descent-free member, in both the
    four-variable and the two-variable alphabets; the orbit totals recover
    the class enumerator."""
    tag = PermClass(klass)
    params = {"klass": tag.value, "n": n}
    orbits, escape = _orbit_partition(tag, n)
    if escape is not None:
        return _fail("pip", params, **escape)
    u1, u2, u3, u4, x, y = (MultiPoly.var(v) for v in ("u1", "u2", "u3", "u4", "x", "y"))
    # (exponent map, peak factor, double-ascent factor) of each alphabet
    alphabets = ((_REFINED, u1 * u2, u3 + u4), (_DES_ASC, x * y, x + y))

    @cache  # orbits with equal (peaks, double_asc, weight) share one product
    def product(alphabet: int, peaks: int, double_asc: int, weight: int) -> MultiPoly:
        _, pair, linear = alphabets[alphabet]
        return pair**peaks * linear**double_asc * MultiPoly.monomial(1, {"al": weight})

    keys = []
    for orb in orbits:
        # orbit members are generated, hence valid: profile each one once
        profiles = {w: _stats(w) for w in orb.members}
        rs = profiles[orb.representative]
        key = (rs.peaks, rs.double_asc, rs.weight)
        keys.append(key)
        for alphabet, (exponents, _, _) in enumerate(alphabets):
            lhs = poly_sum(MultiPoly.monomial(1, exponents(s)) for s in profiles.values())
            rhs = product(alphabet, *key)
            if lhs != rhs:
                return _fail(
                    "pip",
                    params,
                    representative=format_perm(orb.representative),
                    lhs=str(lhs),
                    rhs=str(rhs),
                )
    total = poly_sum(product(1, *key) for key in keys)
    enumerated = _class_enumerator(tag, n)
    if total != enumerated:
        return _fail("pip", params, orbit_total=str(total), enumerator=str(enumerated))
    return _pass("pip", params, orbits=len(orbits))


def _check_gamm(klass: str, n: int) -> CheckReport:
    """The class enumerator equals the double-descent-free sum
    (xy)^des (x+y)^(deg - 2 des) al^weight, deg the word length minus 1."""
    tag = PermClass(klass)
    params = {"klass": tag.value, "n": n}
    m = letters(tag, n)
    deg = m - 1

    def ddfree(s):
        # t marks the power of x + y until the sum is formed
        if s.double_desc:
            return None
        return {"x": s.des, "y": s.des, "t": deg - 2 * s.des, "al": s.weight}

    linear = MultiPoly.var("x") + MultiPoly.var("y")
    acc = profile_sum(tag, m, ddfree).substitute("t", linear)
    enumerated = _class_enumerator(tag, n)
    if acc != enumerated:
        return _fail("gamm", params, ddfree_sum=str(acc), enumerator=str(enumerated))
    return _pass("gamm", params)


def _check_bijection(n: int) -> CheckReport:
    """The mirror is an involution on decreasing-prefix words, swaps
    descents with ascents and double descents with double ascents, and
    preserves the minima total; the induced distribution is symmetric."""
    params = {"n": n}
    for w in enumerate_class(PermClass.PRW, n):
        p = mirror(w)
        if not is_prefix_decreasing(p):
            return _fail("bijection", params, word=format_perm(w), image=format_perm(p))
        if mirror(p) != w:
            return _fail(
                "bijection",
                params,
                word=format_perm(w),
                image=format_perm(p),
                double_image=format_perm(mirror(p)),
            )
        sw, sp = stats(w), stats(p)
        swapped = (sp.des, sp.asc, sp.double_asc, sp.double_desc) == (
            sw.asc,
            sw.des,
            sw.double_desc,
            sw.double_asc,
        )
        if not swapped:
            return _fail(
                "bijection", params, word=format_perm(w), image=format_perm(p),
                reason="descent/ascent or double-descent/double-ascent swap failed",
            )
        if sp.lrmin + sp.rlmin != sw.lrmin + sw.rlmin:
            return _fail(
                "bijection", params, word=format_perm(w), image=format_perm(p),
                reason="minima total changed",
            )
    dist = profile_sum(PermClass.PRW, n, _DES_ASC)
    if not dist.is_symmetric_in("x", "y"):
        return _fail("bijection", params, distribution=str(dist))
    return _pass("bijection", params)


def _check_group_action(n: int, seed: int = 0) -> CheckReport:
    """Toggles are commuting involutions with the documented class flips,
    they preserve peak count, minima total, and the decreasing-prefix
    class, and orbits have size 2^(da+dd) with one double-descent-free
    member."""
    params = {"n": n}
    # the words and their toggle images are generated, hence valid, so they
    # go through the kernels; the one public toggle per (word, letter)
    # keeps the validated entry point under test
    words = list(enumerate_class(PermClass.SYM, n))
    for w in words:
        sw = _stats(w)
        kinds = _classify(w)
        rl, lr = rlmin_values(w), lrmin_values(w)
        prefix_dec = _is_prefix_decreasing(w)
        for x in range(1, n + 1):
            v = toggle(w, x)
            if _toggle(v, x) != w:
                return _fail(
                    "group-action", params, word=format_perm(w), letter=x,
                    reason="not an involution",
                )
            sv = _stats(v)
            if sv.peaks != sw.peaks or sv.lrmin + sv.rlmin != sw.lrmin + sw.rlmin:
                return _fail(
                    "group-action", params, word=format_perm(w), letter=x,
                    reason="peaks or minima total not preserved",
                )
            if prefix_dec and not _is_prefix_decreasing(v):
                return _fail(
                    "group-action", params, word=format_perm(w), letter=x,
                    reason="left the decreasing-prefix class",
                )
            kind = kinds[w.index(x)]
            vkind = _classify(v)[v.index(x)]
            if kind in (PEAK, VALLEY):
                ok = v == w
            elif kind == DOUBLE_ASC:
                ok = vkind == DOUBLE_DESC and (x in lrmin_values(v)) == (x in rl)
            else:
                ok = vkind == DOUBLE_ASC and (x in rlmin_values(v)) == (x in lr)
            if not ok:
                return _fail(
                    "group-action", params, word=format_perm(w), letter=x,
                    reason="letter class did not flip as documented",
                )
    if n <= 6:
        for w in words:
            for x in range(1, n + 1):
                for y in range(x + 1, n + 1):
                    if _toggle(_toggle(w, x), y) != _toggle(_toggle(w, y), x):
                        return _fail(
                            "group-action", params, word=format_perm(w),
                            letters=[x, y], reason="toggles do not commute",
                        )
    orbits, _ = _orbit_partition(PermClass.SYM, n)  # S_n is closed under toggles
    for orb in orbits:
        rs = _stats(orb.representative)
        if orb.size != 2**rs.double_asc:
            return _fail(
                "group-action", params, representative=format_perm(orb.representative),
                size=orb.size, expected=2**rs.double_asc,
            )
    rng = random.Random(seed)
    base = list(range(1, n + 1))
    for _ in range(50):
        w = base[:]
        rng.shuffle(w)
        w = tuple(w)
        subset = [x for x in base if rng.random() < 0.5]
        if toggle_many(toggle_many(w, subset), subset) != w:
            return _fail(
                "group-action", params, word=format_perm(w), letters=subset,
                reason="subset toggle is not an involution",
            )
    return _pass("group-action", params)


# -- registry ----------------------------------------------------------------

CLASSES = (PermClass.SYM.value, PermClass.PRW.value)


@dataclass(frozen=True)
class CheckDef:
    """One registry entry; see the module docstring for the grid rule."""

    name: str
    run: Callable[..., CheckReport]
    lo: int
    hi: int
    summary: str

    @property
    def params(self) -> tuple:
        """Parameter names of the run function, in signature order."""
        return tuple(inspect.signature(self.run).parameters)

    def sweep(self, max_n: int | None = None, seed: int = 0) -> list:
        """Parameter dicts of the default sweep, in run order."""
        top = self.hi if max_n is None else max_n
        if "a" in self.params:
            grid = [{"a": a, "b": s - a} for s in range(self.lo, top + 1) for a in range(1, s)]
        else:
            grid = [{"n": k} for k in range(self.lo, top + 1)]
        if "klass" in self.params:
            grid = [{"klass": c, **p} for c in CLASSES for p in grid]
        if "seed" in self.params:
            grid = [{**p, "seed": seed} for p in grid]
        return grid

    def describe(self, max_n: int | None = None) -> str:
        """One-line description of the default sweep."""
        top = self.hi if max_n is None else max_n
        if "a" in self.params:
            return f"a,b>=1, a+b<={top}"
        text = f"n={self.lo}..{top}"
        if "klass" in self.params:
            text = f"class in ({', '.join(CLASSES)}), {text}"
        return text


REGISTRY: dict = {
    d.name: d
    for d in (
        # name, run, lo, hi, summary
        CheckDef("symmetry-gamma", _check_symmetry_gamma, 1, 8,
                 "two-variable enumerator: symmetry and nonnegative integer basis coefficients"),
        CheckDef("prw-g", _check_prw_g, 1, 8,
                 "peeled coefficients equal all three enumeration routes"),
        CheckDef("mainthm2", partial(_refined_in_basis, "mainthm2", PermClass.PRW), 1, 8,
                 "refined enumerator over decreasing-prefix words in the peeled basis"),
        CheckDef("ji-gam", partial(_refined_in_basis, "ji-gam", PermClass.SYM), 1, 8,
                 "refined enumerator over the symmetric group in the peeled basis"),
        CheckDef("mainthm2-var", _check_mainthm2_var, 1, 7,
                 "five-variable enumerator collapses to the three-variable one"),
        CheckDef("grammar-31", _check_grammar31, 1, 7,
                 "two-variable rule-set derivative equals the marked enumerator"),
        CheckDef("grammar-32", _check_grammar32, 1, 7,
                 "five-variable rule-set derivative, enumerator, and slot labels agree"),
        CheckDef("des-pk", _check_des_pk, 1, 8,
                 "peak/descent/ascent joint distribution in the peeled basis"),
        CheckDef("cgk-alpha", _check_cgk_alpha, 2, 8,
                 "binomial convolution of ascent-refined minima weights is symmetric"),
        CheckDef("secant", _check_secant, 1, 8,
                 "evaluation at (-1, 1): alternating words, signs, half-weight link"),
        CheckDef("pip", _check_pip, 1, 7,
                 "per-orbit product formula and orbit totals"),
        CheckDef("gamm", _check_gamm, 1, 7,
                 "class enumerator equals its double-descent-free expansion"),
        CheckDef("bijection", _check_bijection, 1, 8,
                 "mirror involution: statistic swaps and minima preservation"),
        CheckDef("group-action", _check_group_action, 1, 7,
                 "toggles: involution, commutation, class flips, orbit structure"),
    )
}


def verify(name: str, **params) -> CheckReport:
    """Run one named check.  Mathematical mismatches come back as FAIL
    reports; unknown names, parameters that do not fit the check's
    signature, classes outside ``CLASSES`` and an ``n`` below the check's
    ``lo`` raise, and so does any other error from the check body."""
    defn = REGISTRY.get(name)
    if defn is None:
        known = ", ".join(REGISTRY)
        raise UnknownCheckError(f"no check named {name!r} (known: {known})")
    try:
        inspect.signature(defn.run).bind(**params)
    except TypeError as exc:
        raise ValueOutOfRangeError(f"bad parameters for check {name!r}: {exc}") from None
    klass = params.get("klass", CLASSES[0])
    if klass not in CLASSES:
        known = ", ".join(CLASSES)
        raise ValueOutOfRangeError(f"check {name!r} takes a class in ({known}), not {klass!r}")
    if "n" in params and params["n"] < defn.lo:
        raise ValueOutOfRangeError(f"check {name!r} takes n >= {defn.lo}, got n={params['n']}")
    try:
        return defn.run(**params)
    except _MATH_FAILURES as exc:
        return CheckReport(name, params, "FAIL", {"error": exc.code, "message": exc.message})


def verify_all(max_n: int | None = None, seed: int = 0) -> list:
    """Run every registered check over its default parameter sweep
    (bounded by ``max_n`` when given; ``seed`` reaches every check that
    takes one).  Returns one aggregated report per check, in registry
    order.  A ``max_n`` that leaves some check no runs is rejected before
    any check runs."""
    grids = {name: defn.sweep(max_n, seed) for name, defn in REGISTRY.items()}
    empty = [name for name, grid in grids.items() if not grid]
    if empty:
        raise ValueOutOfRangeError(f"max_n={max_n} leaves no runs for {', '.join(empty)}")
    out = []
    for defn in REGISTRY.values():
        sweep = {"sweep": defn.describe(max_n)}
        runs = 0
        for params in grids[defn.name]:
            report = verify(defn.name, **params)
            runs += 1
            if not report.passed:
                witness = {"params": report.params, **(report.witness or {})}
                out.append(CheckReport(defn.name, sweep, "FAIL", witness))
                break
        else:
            out.append(CheckReport(defn.name, sweep, "PASS", {"runs": runs}))
    return out
