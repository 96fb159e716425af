"""Identity-verification registry and its reports."""

import hashlib
import inspect
import json
import marshal
import os
import subprocess
import sys
import threading

import pytest

from eulab.action import _swap, orbit
from eulab.bijection import mirror
from eulab.checks import (
    PROOFS,
    REGISTRY,
    CheckDef,
    CheckReport,
    Mismatch,
    verify,
    verify_all,
    verify_proofs,
)
from eulab.errors import CapExceededError, UnknownCheckError, ValueOutOfRangeError
from eulab.perms import (
    DOUBLE_ASC,
    DOUBLE_DESC,
    PermClass,
    _classify,
    _stats,
    enumerate_class,
    format_perm,
    letters,
    parse_perm,
)
from eulab.poly import parse_poly


EXPECTED_CHECKS = [
    "symmetry-gamma",
    "prw-g",
    "mainthm2",
    "ji-gam",
    "mainthm2-var",
    "grammar-31",
    "grammar-32",
    "des-pk",
    "cgk-alpha",
    "secant",
    "pip",
    "gamm",
    "bijection",
    "group-action",
]

# (sweep, runs) that ``verify_all()`` reports for each check when it passes
DEFAULT_SWEEPS = {
    "symmetry-gamma": ("n=1..8", 8),
    "prw-g": ("n=1..8", 8),
    "mainthm2": ("n=1..8", 8),
    "ji-gam": ("n=1..8", 8),
    "mainthm2-var": ("n=1..7", 7),
    "grammar-31": ("n=1..7", 7),
    "grammar-32": ("n=1..7", 7),
    "des-pk": ("n=1..8", 8),
    "cgk-alpha": ("a,b>=1, a+b<=8", 28),
    "secant": ("n=1..8", 8),
    "pip": ("class in (sym, prw), n=1..7", 14),
    "gamm": ("class in (sym, prw), n=1..7", 14),
    "bijection": ("n=1..8", 8),
    "group-action": ("n=1..7", 7),
}


def test_registry_contents():
    assert list(REGISTRY) == EXPECTED_CHECKS
    for name, cd in REGISTRY.items():
        assert cd.name == name
        assert cd.summary


def test_symmetry_gamma_report():
    report = verify("symmetry-gamma", n=4)
    assert report.passed
    assert report.check == "symmetry-gamma"
    assert report.params == {"n": 4}
    assert report.witness["gamma"] == [
        "al^4",
        "6*al^3 + 4*al^2 + al",
        "3*al^2 + 2*al",
    ]


def test_secant_odd_vanishes():
    report = verify("secant", n=3)
    assert report.passed
    assert parse_poly(report.witness["value"]) == parse_poly("0")


def test_secant_even_value():
    report = verify("secant", n=4)
    assert report.passed
    assert parse_poly(report.witness["value"]) == parse_poly("3*al^2 + 2*al")


def test_cgk_alpha_both_sides():
    report = verify("cgk-alpha", a=2, b=1)
    assert report.passed
    assert parse_poly(report.witness["both_sides"]) == parse_poly(
        "3*al^3 + 3*al^2 + al"
    )
    assert "convention" in report.witness


def test_unknown_check():
    with pytest.raises(UnknownCheckError):
        verify("no-such-check", n=2)


def test_bad_params_rejected():
    with pytest.raises(ValueOutOfRangeError):
        verify("secant", q=3)
    with pytest.raises(ValueOutOfRangeError):
        verify("secant")
    with pytest.raises(ValueOutOfRangeError):
        verify("cgk-alpha", n=3)


@pytest.mark.parametrize(
    "name, params, quoted",
    [("secant", {"n": 3, "klass": "sym"}, "'klass'"), ("cgk-alpha", {"a": 1}, "'b'")],
)
def test_a_bad_parameter_is_named(name, params, quoted):
    # an unknown name and a missing one alike
    with pytest.raises(ValueOutOfRangeError) as info:
        verify(name, **params)
    assert quoted in info.value.message


@pytest.mark.parametrize("name", [name for name, defn in REGISTRY.items() if "n" in defn.params])
def test_n_below_the_floor_rejected(name):
    classes = ["sym", "prw"] if "klass" in REGISTRY[name].params else [None]
    for klass in classes:
        params = {"n": 0} if klass is None else {"n": 0, "klass": klass}
        with pytest.raises(ValueOutOfRangeError) as info:
            verify(name, **params)
        assert info.value.message == f"check {name!r} takes n >= 1, got n=0"


@pytest.mark.parametrize(
    "name, params",
    [
        ("secant", {"n": "3"}),
        ("secant", {"n": 2.0}),
        ("secant", {"n": True}),
        ("cgk-alpha", {"a": 1, "b": "2"}),
        ("group-action", {"n": None}),
        ("cgk-alpha", {"a": 0, "b": 2}),
    ],
)
def test_bad_parameter_values_rejected_before_the_body(monkeypatch, name, params):
    # n, a and b are plain ints, and a, b >= 1; verify checks them all
    ran = []

    def spy(**kwargs):
        ran.append(kwargs)

    monkeypatch.setitem(REGISTRY, name, REGISTRY[name]._replace(run=spy))
    with pytest.raises(ValueOutOfRangeError):
        verify(name, **params)
    assert ran == []


def test_report_params_are_the_arguments_the_check_ran_with():
    assert verify("group-action", n=3).params == {"n": 3}
    assert verify("group-action", n=3).line() == "PASS group-action n=3"
    # every parameter a row takes is declared, and group-action declares n alone
    with pytest.raises(ValueOutOfRangeError, match="unexpected keyword argument 'seed'"):
        verify("group-action", n=3, seed=0)
    # signature order, whatever the keyword order
    assert verify("pip", n=3, klass="prw").line() == "PASS pip klass=prw n=3"


def test_n_floor_checked_before_the_body():
    ran = []
    REGISTRY["floored"] = CheckDef(
        name="floored", run=lambda n: ran.append(n), lo=3, hi=4, summary="floor"
    )
    try:
        with pytest.raises(ValueOutOfRangeError):
            verify("floored", n=2)
        assert ran == []
    finally:
        del REGISTRY["floored"]


@pytest.mark.parametrize(
    "name, klass", [("pip", "bogus"), ("gamm", "alt-down-up"), ("pip", "ndd-interior")]
)
def test_class_outside_the_grid_rejected(name, klass):
    with pytest.raises(ValueOutOfRangeError):
        verify(name, klass=klass, n=3)


@pytest.mark.parametrize("max_n", [-5, 0, 1])
def test_max_n_leaving_a_check_no_runs_rejected(monkeypatch, max_n):
    import eulab.checks

    def ran(name, **params):
        raise AssertionError(f"{name} ran before the sweeps were checked")

    monkeypatch.setattr(eulab.checks, "verify", ran)
    with pytest.raises(ValueOutOfRangeError) as info:
        verify_all(max_n=max_n)
    assert "cgk-alpha" in info.value.message


@pytest.mark.parametrize(
    "kwargs", [{"max_n": 5.0}, {"max_n": "5"}, {"seed": True}, {"seed": None}]
)
def test_verify_all_arguments_rejected_before_any_check(monkeypatch, kwargs):
    import eulab.checks

    ran = []
    monkeypatch.setattr(eulab.checks, "verify", lambda name, **params: ran.append(name))
    with pytest.raises(ValueOutOfRangeError):
        verify_all(**kwargs)
    assert ran == []


def test_smallest_max_n_runs_every_check():
    reports = verify_all(max_n=2)
    assert all(r.passed and r.witness["runs"] >= 1 for r in reports)


def test_type_error_inside_a_check_propagates():
    # only parameters that do not fit the signature are a usage error
    def buggy(n):
        return None + n

    REGISTRY["buggy"] = CheckDef(name="buggy", run=buggy, lo=1, hi=1, summary="bug")
    try:
        with pytest.raises(TypeError):
            verify("buggy", n=1)
    finally:
        del REGISTRY["buggy"]


def test_report_json_round_trip():
    report = verify("cgk-alpha", a=2, b=2)
    payload = report.to_json()
    assert set(payload) == {"check", "params", "verdict", "witness"}
    back = CheckReport.from_json(payload)
    assert type(back) is CheckReport and back == report
    # payload is plain JSON
    assert json.loads(json.dumps(payload)) == payload


def test_report_json_shares_nothing_with_the_report():
    report = verify("symmetry-gamma", n=2)
    gammas = list(report.witness["gamma"])
    payload = report.to_json()
    payload["params"]["n"] = 9
    payload["witness"]["gamma"].append("x")
    assert report.params == {"n": 2}
    assert report.witness["gamma"] == gammas


def test_report_line_format():
    report = verify("secant", n=2)
    assert report.line().startswith("PASS secant")


def test_failure_path_is_honest():
    # mathematical mismatches surface as FAIL reports, never as exceptions
    from eulab.errors import NotSymmetricError

    def broken(n):
        raise NotSymmetricError("forced mismatch for the report path")

    defn = CheckDef(name="broken", summary="always fails", run=broken, lo=2, hi=2)
    REGISTRY["broken"] = defn
    try:
        report = verify("broken", n=2)
        assert not report.passed
        assert report.verdict == "FAIL"
        assert report.witness["error"] == "NOT_SYMMETRIC"
        assert "forced mismatch" in report.witness["message"]

        all_reports = verify_all(max_n=2)
        broken_report = next(r for r in all_reports if r.check == "broken")
        assert not broken_report.passed
    finally:
        del REGISTRY["broken"]


@pytest.mark.parametrize("name", EXPECTED_CHECKS)
def test_each_check_passes_at_small_size(name):
    if name == "cgk-alpha":
        report = verify(name, a=1, b=2)
    elif name in ("pip", "gamm"):
        report = verify(name, n=3, klass="prw")
    else:
        report = verify(name, n=3)
    assert report.passed, report.witness


def test_verify_all_small():
    reports = verify_all(max_n=4)
    assert [r.check for r in reports] == EXPECTED_CHECKS
    assert all(r.passed for r in reports)
    got = {r.check: (r.params["sweep"], r.witness["runs"]) for r in reports}
    assert got == {
        **{name: ("n=1..4", 4) for name in EXPECTED_CHECKS},
        "cgk-alpha": ("a,b>=1, a+b<=4", 6),
        "pip": ("class in (sym, prw), n=1..4", 8),
        "gamm": ("class in (sym, prw), n=1..4", 8),
    }


def test_verify_all_json_is_pinned():
    # the recorded digest of the whole report list: a change of coefficient
    # type or rendering anywhere would show here
    text = json.dumps([r.to_json() for r in verify_all(max_n=3)], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "877982ed4e09f1e82dcafda9870603b8597426ed7a6bebebe71079e0af3c786a"
    )


def test_verify_all_seed_reaches_no_check():
    # no check samples, so the report list is the same byte for byte
    texts = {json.dumps([r.to_json() for r in verify_all(max_n=3, seed=s)], sort_keys=True)
             for s in (0, 1, 7)}
    assert len(texts) == 1


def test_default_sweeps():
    # the grid verify_all() runs without a bound; its runs are the sweep size
    got = {
        name: (defn.describe(), len(defn.sweep())) for name, defn in REGISTRY.items()
    }
    assert got == DEFAULT_SWEEPS
    assert REGISTRY["pip"].sweep()[:2] == [
        {"klass": "sym", "n": 1},
        {"klass": "sym", "n": 2},
    ]
    assert REGISTRY["pip"].sweep()[7] == {"klass": "prw", "n": 1}
    assert REGISTRY["cgk-alpha"].sweep()[:3] == [
        {"a": 1, "b": 1},
        {"a": 1, "b": 2},
        {"a": 2, "b": 1},
    ]
    assert REGISTRY["group-action"].sweep(2) == [{"n": 1}, {"n": 2}]


def test_every_row_signature_has_a_grid():
    from eulab.checks import _GRIDS

    for defn in [*REGISTRY.values(), *PROOFS.values()]:
        assert defn.params in _GRIDS, defn.name


def test_a_row_with_an_unlisted_signature_has_no_sweep():
    # one grid per signature: an unknown one is not swept as n
    defn = CheckDef("unlisted", lambda k: None, 1, 3, "no grid", ("k",))
    with pytest.raises(KeyError):
        defn.sweep()
    with pytest.raises(KeyError):
        defn.describe()


def test_grammar_31_fails_on_a_rule_set_missing_a_rule(monkeypatch, cold_profile_route):
    import eulab.grammar

    source = eulab.grammar.BUILTIN_SOURCES["two-variable"]
    assert " y -> x*y;" in source
    monkeypatch.setitem(eulab.grammar.BUILTIN_SOURCES, "two-variable",
                        source.replace(" y -> x*y;", ""))
    assert verify("grammar-31", n=1).passed  # one step reads only the marker's rule
    report = verify("grammar-31", n=2)
    assert not report.passed
    assert set(report.witness) == {"derived", "enumerated"}


# wrong toggles: no move at all, and the classical interval swap on every
# double ascent and descent (an involution too, but without the minima hop)
WRONG_MOVES = [
    lambda w, x: w,
    lambda w, x: _swap(w, w.index(x)) if _classify(w)[w.index(x)] in (DOUBLE_ASC, DOUBLE_DESC)
    else w,
]


def _install(monkeypatch, kernel, wrong):
    # patch a kernel of eulab.action; a mutant of ``_images`` is given per
    # letter, as ``wrong(w, x)``, and goes in as the images kernel that
    # ``_walk`` calls, one call per letter
    import eulab.action

    if kernel == "_images":
        move = wrong
        wrong = lambda w: tuple([move(w, x) for x in range(1, len(w) + 1)])
    monkeypatch.setattr(eulab.action, kernel, wrong)


@pytest.mark.parametrize("wrong", WRONG_MOVES)
@pytest.mark.parametrize("name", ["_images"])
def test_group_action_fails_on_a_wrong_toggle(monkeypatch, name, wrong):
    _install(monkeypatch, name, wrong)
    report = verify("group-action", n=4)
    assert not report.passed
    assert "letter" in report.witness


def test_group_action_checks_commutation_on_seven_letters(monkeypatch):
    # under letter 4 the words of two pairs trade partners: each toggle is
    # still an involution with the documented flips, and only the
    # commutation test sees that toggles 2 and 4 no longer commute
    import eulab.action

    real = eulab.action._images
    traded = {}
    for a, b in (("1234576", "4123657"), ("1234657", "4123576")):
        a, b = tuple(map(int, a)), tuple(map(int, b))
        assert real(a)[3] != b and real(b)[3] != a
        traded[a], traded[b] = b, a

    def wrong(w, x):
        return traded[w] if x == 4 and w in traded else real(w)[x - 1]

    _install(monkeypatch, "_images", wrong)
    assert verify("group-action", n=7).witness == {
        "word": "1 2 3 4 5 7 6", "letters": [2, 4], "reason": "toggles do not commute",
    }


# pip's witness under each wrong move, by class: the walk from the identity
# under no move at all is the identity alone, whose sum is one monomial; the
# classical swap reaches more than one double-descent-free word
PIP_WRONG_MOVE_WITNESSES = {
    "sym": [
        {"representative": "1 2 3 4", "lhs": "al^3*u3^3",
         "rhs": "al^3*u3^3 + 3*al^3*u3^2*u4 + 3*al^3*u3*u4^2 + al^3*u4^3"},
        {"error": "ORBIT_REPRESENTATIVE_NOT_UNIQUE",
         "message": "expected one double-descent-free member, found 3 in orbit of (1, 2, 3, 4)"},
    ],
    "prw": [
        {"representative": "1 2 3 4 5", "lhs": "al^4*u3^4",
         "rhs": "al^4*u3^4 + 4*al^4*u3^3*u4 + 6*al^4*u3^2*u4^2 + 4*al^4*u3*u4^3 + al^4*u4^4"},
        {"error": "ORBIT_REPRESENTATIVE_NOT_UNIQUE",
         "message": "expected one double-descent-free member, found 4 in orbit of (1, 2, 3, 4, 5)"},
    ],
}


@pytest.mark.parametrize("wrong", WRONG_MOVES)
@pytest.mark.parametrize("klass", ["sym", "prw"])
def test_pip_fails_on_a_wrong_toggle(monkeypatch, klass, wrong):
    _install(monkeypatch, "_images", wrong)
    report = verify("pip", klass=klass, n=4)
    assert report.witness == PIP_WRONG_MOVE_WITNESSES[klass][WRONG_MOVES.index(wrong)]


def _escaping(word, letter, image):
    # the real toggle, except that ``letter`` sends ``word`` to ``image``,
    # a word outside the decreasing-prefix class that every letter fixes
    import eulab.action

    real = eulab.action._images

    def wrong(w, x):
        if w == image:
            return w
        return image if (w, x) == (word, letter) else real(w)[x - 1]

    return wrong


# the escaping orbit is named by its representative, and the stray by the
# least word of the walked orbit outside the class
ESCAPES = [
    # the image has a double descent, so the orbit keeps one representative
    ((2, 1, 3, 4, 5), 3, (2, 4, 3, 1, 5),
     {"escapes_to": "2 4 3 1 5", "orbit_of": "1 2 3 4 5"}),
    # the image has none: the orbit has two representatives, checked first
    ((1, 2, 3, 4, 5), 5, (2, 3, 1, 4, 5),
     {"error": "ORBIT_REPRESENTATIVE_NOT_UNIQUE",
      "message": "expected one double-descent-free member, found 2 in orbit of (1, 2, 3, 4, 5)"}),
]


@pytest.mark.parametrize("word, letter, image, witness", ESCAPES)
def test_pip_reports_an_orbit_that_leaves_the_class(monkeypatch, word, letter, image, witness):
    _install(monkeypatch, "_images", _escaping(word, letter, image))
    report = verify("pip", klass="prw", n=4)
    assert report.to_json() == {
        "check": "pip", "params": {"klass": "prw", "n": 4}, "verdict": "FAIL", "witness": witness,
    }


def test_pip_names_the_least_stray_of_the_public_orbit(monkeypatch):
    # one engine: the public orbit of the representative holds the same
    # words as pip's walk, and the stray is its least word outside the class
    word, letter, image, witness = ESCAPES[0]
    _install(monkeypatch, "_images", _escaping(word, letter, image))
    assert verify("pip", klass="prw", n=4).witness == witness
    members = orbit(parse_perm(witness["orbit_of"])).members
    strays = set(members) - set(enumerate_class(PermClass.PRW, 5))
    assert format_perm(min(strays)) == witness["escapes_to"]


@pytest.mark.parametrize("name, params, words", [
    ("group-action", {"n": 4}, 24), ("pip", {"klass": "sym", "n": 4}, 24),
    ("pip", {"klass": "prw", "n": 4}, 65),
])
def test_an_orbit_the_stream_misses_is_counted(monkeypatch, name, params, words):
    # the stream takes the identity for a word with a double descent, so its
    # orbit is never walked; every walked orbit is sound, and only the sum of
    # the orbit sizes falls short of the words streamed
    import eulab.checks

    real = eulab.checks._has_double_descent
    identity = tuple(range(1, letters(PermClass(params.get("klass", "sym")), 4) + 1))
    monkeypatch.setattr(eulab.checks, "_has_double_descent", lambda w: w == identity or real(w))
    missed = orbit(identity).size
    assert verify(name, **params).witness == {"words": words, "orbit_members": words - missed}


def test_a_blind_double_descent_scan_fails_pip_and_group_action(monkeypatch):
    # every member then looks free of double descents, so no orbit of more
    # than one word has a unique representative
    import eulab.action

    monkeypatch.setattr(eulab.action, "_has_double_descent", lambda w: False)
    for report in (verify("group-action", n=4), verify("pip", klass="sym", n=4),
                   verify("pip", klass="prw", n=4)):
        assert not report.passed
        assert report.witness["error"] == "ORBIT_REPRESENTATIVE_NOT_UNIQUE"


# -- the table-based oracle of pip and group-action ---------------------------
# The form both checks had before they walked orbits from representatives:
# one toggle table over the whole class, split into its components, with
# every fact read from whole-class dicts.  Each kernel is read from its
# module at call time, so a mutant reaches the oracle too.


def _oracle_table(words):
    import eulab.action

    own = {w: w for w in words}
    return {w: tuple([own.get(v, v) for v in eulab.action._images(w)]) for w in words}


def _oracle_orbits(table):
    # components in order of first word; an image outside the table is an
    # escape, named by the least stray of the public orbit of the first word
    import eulab.action
    from eulab.checks import Mismatch
    from eulab.errors import RepresentativeError

    seen, orbits = set(), []
    for w in table:
        if w in seen:
            continue
        seen.add(w)
        members = [w]
        for u in members:
            for v in table[u]:
                if v not in seen:
                    if v not in table:
                        stray = set(orbit(w).members) - table.keys() or {v}
                        raise Mismatch(orbit_of=format_perm(w), escapes_to=format_perm(min(stray)))
                    seen.add(v)
                    members.append(v)
        reps = [m for m in sorted(members) if not eulab.action._has_double_descent(m)]
        if len(reps) != 1:
            raise RepresentativeError(
                f"expected one double-descent-free member, found {len(reps)} in orbit of {w}"
            )
        orbits.append((tuple(sorted(members)), reps[0]))
    return orbits


def _oracle_pip(klass, n):
    import collections

    from eulab.checks import _DES_ASC_BASIS, _REFINED_BASIS, Mismatch, _class_enumerator
    from eulab.poly import MultiPoly, monomial_sum, poly_sum

    tag = PermClass(klass)
    m = letters(tag, n)
    orbits = _oracle_orbits(_oracle_table(list(enumerate_class(tag, m))))
    alphabets = (_REFINED_BASIS, _DES_ASC_BASIS)

    def product(alphabet, peaks, double_asc, weight):
        _, pair, linear = alphabets[alphabet]
        return pair**peaks * linear**double_asc * MultiPoly.monomial(1, {"al": weight})

    keys = []
    for members, rep in orbits:
        profiles = {w: _stats(w) for w in members}
        key = (profiles[rep].peaks, profiles[rep].double_asc, profiles[rep].weight)
        keys.append(key)
        counts = collections.Counter(profiles.values())
        for alphabet, (exponents, _, _) in enumerate(alphabets):
            lhs = monomial_sum((c, exponents(s)) for s, c in counts.items())
            rhs = product(alphabet, *key)
            if lhs != rhs:
                raise Mismatch(representative=format_perm(rep), lhs=str(lhs), rhs=str(rhs))
    total = poly_sum(product(1, *key) for key in keys)
    enumerator = _class_enumerator(tag, n)
    if total != enumerator:
        raise Mismatch(orbit_total=str(total), enumerator=str(enumerator))
    return {"orbits": len(orbits)}


def _oracle_group_action(n):
    from eulab.checks import Mismatch
    from eulab.perms import _is_prefix_decreasing, lrmin_values, rlmin_values

    words = list(enumerate_class(PermClass.SYM, n))
    table = _oracle_table(words)
    profile, kinds, prefix_dec = ({w: fact(w) for w in words} for fact in (
        _stats, _classify, _is_prefix_decreasing))
    lrmin, rlmin = ({w: fact(w) for w in words} for fact in (lrmin_values, rlmin_values))
    flips = {DOUBLE_ASC: DOUBLE_DESC, DOUBLE_DESC: DOUBLE_ASC}
    for w, images in table.items():
        for x, v in enumerate(images, start=1):
            image_kind = flips.get(kinds[w][w.index(x)])
            if image_kind is None:
                flipped = v == w
            else:
                ascends, descends = (w, v) if image_kind == DOUBLE_DESC else (v, w)
                flipped = kinds[v][v.index(x)] == image_kind and (
                    (x in lrmin[descends]) == (x in rlmin[ascends]))
            if table[v][x - 1] != w:
                reason = "not an involution"
            elif profile[v].peaks != profile[w].peaks or profile[v].weight != profile[w].weight:
                reason = "peaks or minima total not preserved"
            elif prefix_dec[w] and not prefix_dec[v]:
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
    for members, rep in _oracle_orbits(table):
        if len(members) != 2 ** profile[rep].double_asc:
            raise Mismatch(representative=format_perm(rep), size=len(members),
                           expected=2 ** profile[rep].double_asc)


def _oracle(name, **params):
    # (verdict, witness) as ``verify`` reports them
    from eulab.checks import Mismatch
    from eulab.errors import RepresentativeError

    run = {"pip": _oracle_pip, "group-action": _oracle_group_action}[name]
    try:
        return "PASS", run(**params)
    except Mismatch as exc:
        return "FAIL", exc.witness
    except RepresentativeError as exc:
        return "FAIL", {"error": exc.code, "message": exc.message}


ORACLE_RUNS = [("group-action", {}), ("pip", {"klass": "sym"}), ("pip", {"klass": "prw"})]


@pytest.mark.parametrize("n", range(1, 8))
def test_pip_and_group_action_match_the_table_oracle(n):
    for name, params in ORACLE_RUNS:
        report = verify(name, n=n, **params)
        assert (report.verdict, report.witness) == _oracle(name, n=n, **params), (name, params)


# mutants of the action kernels, each patched into ``eulab.action`` by
# ``_install``: the wrong moves, a toggle that escapes the decreasing-prefix
# class, a blind double-descent scan and one that sees a double descent
# everywhere
ORACLE_MUTANTS = [("_images", wrong) for wrong in WRONG_MOVES] + [
    ("_images", "escape"),
    ("_has_double_descent", lambda w: False),
    ("_has_double_descent", lambda w: True),
]


@pytest.mark.parametrize("kernel, wrong", ORACLE_MUTANTS)
def test_pip_and_group_action_fail_where_the_table_oracle_fails(monkeypatch, kernel, wrong):
    # the witnesses may differ (the orbit walk checks one orbit at a time),
    # the verdicts may not
    if wrong == "escape":
        wrong = _escaping(*ESCAPES[0][:3])
    _install(monkeypatch, kernel, wrong)
    for n in range(1, 6):
        for name, params in ORACLE_RUNS:
            got = verify(name, n=n, **params).verdict
            assert got == _oracle(name, n=n, **params)[0], (name, params, n)


def test_group_action_holds_one_orbit_at_a_time():
    # the whole-class tables it kept before peaked at 4.5 MB on 7 letters;
    # one orbit of 7 letters holds at most 64 words
    import tracemalloc

    tracemalloc.start()
    try:
        assert verify("group-action", n=7).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("name", list(REGISTRY))
def test_a_row_declares_the_parameters_of_its_run_function(name):
    # verify binds against the declared names; the signature is the oracle
    defn = REGISTRY[name]
    signature = inspect.signature(defn.run).parameters
    assert defn.params == tuple(signature)
    # every declared parameter is required, so no row has a default
    assert all(v.default is v.empty for v in signature.values())


# wrong profiles, with the witness field of the part of pip that must catch
# them: the reversed word's profile swaps double ascents and descents, which
# breaks an orbit's product; one left-to-right minimum too many on every
# word raises both sides of every orbit identity alike, and only the orbit
# total can catch it
WRONG_PROFILES = [
    (lambda w: _stats(w[::-1]), "representative"),
    (lambda w: _stats(w)._replace(lrmin=_stats(w).lrmin + 1), "orbit_total"),
]


@pytest.mark.parametrize("wrong, caught_by", WRONG_PROFILES)
@pytest.mark.parametrize("klass", ["sym", "prw"])
def test_pip_fails_on_a_wrong_profile(monkeypatch, klass, wrong, caught_by):
    import eulab.checks

    monkeypatch.setattr(eulab.checks, "_stats", wrong)
    report = verify("pip", klass=klass, n=4)
    assert not report.passed
    assert caught_by in report.witness


def test_pip_compares_an_orbit_whose_own_shape_is_new(monkeypatch):
    # the orbit of 1 3 2 4 has the key and the profile multiset of the
    # orbit of 1 2 4 3 before it; a wrong profile on its other member alone
    # gives it a shape of its own, so pip compares it and names it
    import eulab.checks

    assert orbit((1, 3, 2, 4)).members == ((1, 3, 2, 4), (4, 1, 3, 2))
    monkeypatch.setattr(eulab.checks, "_stats",
                        lambda w: _stats(w[::-1]) if w == (4, 1, 3, 2) else _stats(w))
    assert verify("pip", klass="sym", n=4).witness == {
        "representative": "1 3 2 4", "lhs": "2*al^2*u1*u2*u3",
        "rhs": "al^2*u1*u2*u3 + al^2*u1*u2*u4",
    }


@pytest.mark.parametrize("klass, n", [("sym", 4), ("sym", 5), ("prw", 4)])
def test_pip_compares_each_distinct_orbit_shape_once(monkeypatch, klass, n):
    # one left side per alphabet for each (key, profile multiset) of the
    # public orbits of the class's double-descent-free words
    import collections

    import eulab.checks

    tag = PermClass(klass)
    shapes = set()
    for r in enumerate_class(tag, letters(tag, n)):
        if not _stats(r).double_desc:
            key = (_stats(r).peaks, _stats(r).double_asc, _stats(r).weight)
            counts = collections.Counter(_stats(w) for w in orbit(r).members)
            shapes.add((key, frozenset(counts.items())))
    sums = []
    real = eulab.checks.monomial_sum
    monkeypatch.setattr(eulab.checks, "monomial_sum", lambda terms: sums.append(1) or real(terms))
    assert verify("pip", klass=klass, n=n).passed
    assert len(sums) == 2 * len(shapes)


def _bumped(field):
    # one more of ``field`` on the words below their mirror image: every
    # mirrored pair with distinct words then breaks the swap-table row whose
    # image or word side reads ``field`` (``lrmin`` stands for ``weight``)
    def wrong(w):
        s = _stats(w)
        return s._replace(**{field: getattr(s, field) + (w < mirror(w))})

    return wrong


@pytest.mark.parametrize(
    "field, row",
    [("des", "des"), ("asc", "asc"), ("double_asc", "double_asc"),
     ("double_desc", "double_desc"), ("lrmin", "weight")],
)
def test_bijection_fails_on_a_broken_swap(monkeypatch, field, row):
    import eulab.checks

    monkeypatch.setattr(eulab.checks, "_stats", _bumped(field))
    report = verify("bijection", n=4)
    assert not report.passed
    assert "word" in report.witness
    assert row in report.witness["reason"].split()


def test_bijection_fails_on_the_identity_mirror(monkeypatch):
    import eulab.checks

    # the check runs the mirror kernel on the words it generates
    monkeypatch.setattr(eulab.checks, "_mirror", lambda w: tuple(w))
    report = verify("bijection", n=4)
    assert not report.passed
    assert "word" in report.witness


def test_bijection_fails_on_an_asymmetric_distribution(monkeypatch):
    import eulab.checks

    # every word keeps its swaps, but one descent too many tilts the sum
    monkeypatch.setattr(eulab.checks, "_DES_ASC",
                        lambda s: {"x": s.des + 1, "y": s.asc, "al": s.weight})
    report = verify("bijection", n=3)
    assert report.verdict == "FAIL"
    assert list(report.witness) == ["distribution"]


def test_grammar32_fails_on_a_wrong_label_kernel(monkeypatch):
    import eulab.checks

    real = eulab.checks._slot_labels
    swap = {"u4": "u5", "u5": "u4"}

    def wrong(w):
        lw = real(w)
        return lw._replace(labels=tuple(swap.get(lab, lab) for lab in lw.labels))

    monkeypatch.setattr(eulab.checks, "_slot_labels", wrong)
    report = verify("grammar-32", n=3)
    assert not report.passed
    assert {"labeled", "enumerated"} <= report.witness.keys()
    assert parse_poly(report.witness["labeled"]) != parse_poly(report.witness["enumerated"])


@pytest.mark.parametrize("side", ["lrmin_values", "rlmin_values"])
def test_group_action_reads_the_minima_functions_at_call_time(monkeypatch, side):
    import eulab.checks

    calls = []
    real = getattr(eulab.checks, side)
    monkeypatch.setattr(eulab.checks, side, lambda w: calls.append(w) or real(w))
    assert verify("group-action", n=4).passed
    assert calls
    # a wrong minima function is seen, and caught on a letter
    monkeypatch.setattr(eulab.checks, side, lambda w: set())
    report = verify("group-action", n=4)
    assert not report.passed
    assert "letter" in report.witness


# enumerators that break symmetry-gamma, each with the FAIL witness it gives
BROKEN_ENUMERATORS = [
    ("x^2 + x*y", {"error": "NOT_SYMMETRIC", "message": "not symmetric in 'x', 'y': x^2 + x*y"}),
    ("x*y + x + y", {"error": "NOT_HOMOGENEOUS", "message": "mixed degrees [1, 2] in ['x', 'y']"}),
    ("x^2 + 5/2*x*y + y^2", {"k": 1, "gamma": "1/2"}),
]


@pytest.mark.parametrize("text, witness", BROKEN_ENUMERATORS)
def test_symmetry_gamma_fails_on_a_broken_enumerator(monkeypatch, text, witness):
    import eulab.gamma

    # the peel row of ``gamma.ROUTES`` looks ``build`` up in ``eulab.gamma``
    real = eulab.gamma.build
    monkeypatch.setattr(eulab.gamma, "build", lambda *a: real(*a)._replace(value=parse_poly(text)))
    report = verify("symmetry-gamma", n=2)
    assert (report.verdict, report.witness) == ("FAIL", witness)


def test_prw_g_fails_on_a_disagreeing_route(monkeypatch):
    import eulab.gamma
    from eulab.gamma import GammaRoute

    # the class rows of ``gamma.ROUTES`` look ``gamma_from_class`` up in
    # ``eulab.gamma``; the witness names the row by its --interp name
    real = eulab.gamma.gamma_from_class

    def route(r, n):
        gammas = real(r, n)
        return gammas[:-1] + [gammas[-1] + 1] if r is GammaRoute.NDD_DESCENTS else gammas

    monkeypatch.setattr(eulab.gamma, "gamma_from_class", route)
    report = verify("prw-g", n=4)
    assert report.verdict == "FAIL"
    assert report.witness == {"route": "3", "k": 2, "expected": "3*al^2 + 2*al",
                              "got": "3*al^2 + 2*al + 1"}


def test_prw_g_compares_every_route_row_with_the_peel(monkeypatch):
    from eulab.gamma import ROUTES

    monkeypatch.setitem(ROUTES, "same", ROUTES["expand"])
    assert verify("prw-g", n=3).verdict == "PASS"
    monkeypatch.setitem(ROUTES, "off", lambda n: [g + 1 for g in ROUTES["expand"](n)])
    report = verify("prw-g", n=3)
    assert report.verdict == "FAIL"
    assert report.witness == {"route": "off", "k": 0, "expected": "al^3", "got": "al^3 + 1"}


def test_cgk_alpha_checks_its_k0_term_against_the_convention(monkeypatch):
    # with the empty word weighing 0 the printed form holds at (1, 2), where
    # the documented convention says it must not
    import eulab.checks
    from eulab.poly import MultiPoly

    real = eulab.checks.stirling_eulerian
    monkeypatch.setattr(eulab.checks, "stirling_eulerian",
                        lambda m, k: MultiPoly.zero() if (m, k) == (0, 0) else real(m, k))
    report = verify("cgk-alpha", a=1, b=2)
    assert report.verdict == "FAIL"
    assert "note" in report.witness


# -- the second table ----------------------------------------------------------


def test_verify_all_json_is_pinned_at_the_benchmark_sizes():
    # the digests that the benchmark holds its verify-sweep runs to, at the
    # default and the full sizes; the profile route must leave both as they are
    for max_n, want in (
        (5, "d652203a745a1ea9aa7f59df69c71df1620559fc9e76db371e053b63d8d7e311"),
        (None, "7ac1e1ca731987b9b7be6220058d48e7fa91cdf8508773843fdcb616bdf59aa7"),
    ):
        text = json.dumps([r.to_json() for r in verify_all(max_n=max_n)], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == want, max_n


def test_verify_all_json_is_the_same_cold_warm_and_cleared(library_caches, one_cpu):
    # on one CPU nothing forks, so every run of the second sweep reads the
    # caches the first one filled
    import eulab.checks
    import eulab.enumerators

    for value_cache in (eulab.enumerators._value, eulab.enumerators._ascent_rows,
                        eulab.checks._product):
        assert any(cache is value_cache for cache in library_caches)
    code = ("import json, eulab; "
            "print(json.dumps([r.to_json() for r in eulab.verify_all(max_n=4)], sort_keys=True))")
    cold = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True).stdout

    def run() -> str:
        return json.dumps([r.to_json() for r in verify_all(max_n=4)], sort_keys=True) + "\n"

    run()
    warm = run()
    for cache in library_caches:
        cache.cache_clear()
    cleared = run()
    assert cold == warm == cleared


def test_pip_runs_share_their_products():
    import eulab.checks

    product = eulab.checks._product
    product.cache_clear()
    assert verify("pip", klass="sym", n=4).passed
    first = product.cache_info()
    assert verify("pip", klass="sym", n=4).passed
    again = product.cache_info()
    assert first.misses > 0 and again.misses == first.misses and again.hits > first.hits


def test_verify_proofs_json_is_pinned():
    text = json.dumps([r.to_json() for r in verify_proofs()], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9a22a5854c0fe9cc36485b62b102eaeb9da737025bccfe0e4874ca71cb81157a"
    )


def test_names_are_unique_across_the_two_tables():
    assert not REGISTRY.keys() & PROOFS.keys()
    # the CLI's table-wide runs are no check's name
    assert not {"all", "proofs"} & (REGISTRY.keys() | PROOFS.keys())
    assert all(defn.name == name for name, defn in PROOFS.items())


@pytest.mark.parametrize("name", list(PROOFS))
def test_a_proof_row_runs_once_with_no_parameters(name):
    defn = PROOFS[name]
    assert defn.params == tuple(inspect.signature(defn.run).parameters) == ()
    assert (defn.sweep(), defn.describe()) == ([{}], "once")
    assert verify(name).passed
    with pytest.raises(ValueOutOfRangeError, match="unexpected keyword argument 'n'"):
        verify(name, n=3)


def parse_stats(word: str) -> dict:
    return _stats(parse_perm(word))._asdict()


def test_profile_rules_fails_without_the_ldd_rule(monkeypatch, cold_profile_route):
    import eulab.grammar

    source = eulab.grammar.BUILTIN_SOURCES["profile-sym"]
    assert " ldd -> pk;" in source
    monkeypatch.setitem(eulab.grammar.BUILTIN_SOURCES, "profile-sym",
                        source.replace(" ldd -> pk;", ""))
    report = verify("profile-rules")
    # an insertion next to a left-to-right minimum that is a double descent
    # is then lost: two of the three words of this profile are counted
    assert (report.verdict, report.witness) == ("FAIL", {
        "class": "sym", "letters": 4, "profile": parse_stats("3 2 4 1"),
        "derived": 2, "enumerated": 3})
    (summary,) = verify_proofs()
    assert (summary.verdict, summary.witness) == ("FAIL", {"params": {}, **report.witness})


def test_profile_rules_fails_on_an_alternating_filter_without_f(monkeypatch, cold_profile_route):
    import eulab.enumerators

    rules = eulab.enumerators._PROFILE_RULES
    monkeypatch.setitem(rules, PermClass.ALT_DOWN_UP, (
        "profile-sym", lambda e, m: m < 2 or not e.keys() & {"idd", "ldd", "ida", "rda"}))
    report = verify("profile-rules")
    # the word 1 2 has no F, so only the F condition keeps it out
    assert (report.verdict, report.witness) == ("FAIL", {
        "class": "alt-down-up", "letters": 2, "profile": parse_stats("1 2"),
        "derived": 1, "enumerated": 0})


# -- one table's runs, spread over the usable CPUs -----------------------------
# ``_run_table`` forks a worker per usable CPU past the first, up to the number
# of runs; the report list, its FAIL witnesses and the error it raises are
# those of running every run in table order in one process.


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or _usable_cpus() < 2,
    reason="needs sched_setaffinity and at least two usable CPUs")


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers that ``os.fork`` starts during the test."""
    real, pids = os.fork, []

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture
def one_cpu():
    """Pins this process, and every process it starts, to one CPU for the
    test, where the platform can, so that ``verify_all`` forks nothing."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_all_raises_the_error_of_the_earlier_row(monkeypatch):
    # the later row raises on every run, the earlier one only on its last;
    # alone in a table, the later row has 28 runs, so that every process
    # claims some of them
    from eulab.checks import _run_table

    def late(n):
        if n == 3:
            raise KeyError("the last run of the earlier row")

    def early(a, b):
        raise ZeroDivisionError("every run of the later row")

    rows = {"raises-late": CheckDef("raises-late", late, 1, 3, "raises"),
            "raises-early": CheckDef("raises-early", early, 2, 8, "raises", ("a", "b"))}
    for name, row in rows.items():
        monkeypatch.setitem(REGISTRY, name, row)
    with pytest.raises(KeyError, match="the last run of the earlier row"):
        verify_all(max_n=3)
    with pytest.raises(KeyError, match="the last run of the earlier row"):
        _run_table(rows, None)


def test_a_raise_past_the_first_fail_of_a_row_is_never_reached(monkeypatch):
    def fails_then_raises(n):
        if n == 2:
            raise Mismatch(at=n)
        if n == 3:
            raise KeyError("past the first FAIL of the row")

    monkeypatch.setitem(REGISTRY, "fails", CheckDef("fails", fails_then_raises, 1, 3, "fails"))
    report = verify_all(max_n=3)[-1]
    assert report.to_json() == {"check": "fails", "params": {"sweep": "n=1..3"},
                                "verdict": "FAIL", "witness": {"params": {"n": 2}, "at": 2}}


def test_verify_all_under_a_cap_of_six_raises_as_the_serial_sweep_did(monkeypatch):
    # the first run in table order past the cap is symmetry-gamma at n=6,
    # on seven letters
    monkeypatch.setenv("EULAB_MAX_N", "6")
    with pytest.raises(CapExceededError) as info:
        verify_all()
    assert (type(info.value), info.value.code, info.value.message) == (
        CapExceededError, "CAP_EXCEEDED", "7 letters exceed the enumeration cap 6 (EULAB_MAX_N)")


def test_reports_survive_the_worker_transport(monkeypatch, library_caches, cold_profile_route):
    # workers send ``to_json()`` dicts through marshal; every run report and
    # FAIL witnesses with nested dicts and lists must come back equal
    import eulab.grammar
    from eulab.gamma import ROUTES

    def back(report):
        return CheckReport.from_json(marshal.loads(marshal.dumps(report.to_json())))

    reports = [verify(name, **params) for name, defn in REGISTRY.items()
               for params in defn.sweep(3)]
    assert len(reports) == sum(r.witness["runs"] for r in verify_all(max_n=3))
    source = eulab.grammar.BUILTIN_SOURCES["profile-sym"]
    monkeypatch.setitem(eulab.grammar.BUILTIN_SOURCES, "profile-sym",
                        source.replace(" ldd -> pk;", ""))
    monkeypatch.setitem(ROUTES, "off", lambda n: [g + 1 for g in ROUTES["expand"](n)])
    for cache in library_caches:  # the tables of the real rule set are cached
        cache.cache_clear()
    failed = [verify("profile-rules"), *verify_proofs(), verify("prw-g", n=3),
              *[r for r in verify_all(max_n=3) if not r.passed]]
    assert {"profile-rules", "prw-g"} <= {r.check for r in failed}
    assert not any(r.passed for r in failed)
    assert isinstance(failed[0].witness["profile"], dict)
    for report in reports + failed:
        assert back(report) == report and type(back(report)) is CheckReport


@needs_two_cpus
def test_verify_all_json_is_the_same_on_one_cpu_and_on_all():
    # one subprocess at a time, so the test never runs more processes than
    # there are usable CPUs; the pinned one forks nothing
    code = ("import json, os, sys, eulab\n"
            "if sys.argv[1:]:\n"
            "    os.sched_setaffinity(0, {int(sys.argv[1])})\n"
            "print(json.dumps([r.to_json() for r in eulab.verify_all(max_n=4)], sort_keys=True))\n")
    pinned, unpinned = (subprocess.run([sys.executable, "-c", code, *cpu], capture_output=True,
                                       text=True, check=True).stdout
                        for cpu in ([str(min(os.sched_getaffinity(0)))], []))
    assert pinned == unpinned
    assert [r["verdict"] for r in json.loads(pinned)] == ["PASS"] * len(REGISTRY)


@needs_two_cpus
def test_no_worker_outlives_verify_all(monkeypatch, forks):
    assert all(r.passed for r in verify_all(max_n=3))
    assert len(forks) == _usable_cpus() - 1
    _no_child_left()
    monkeypatch.setitem(REGISTRY, "raises", CheckDef("raises", lambda n: 1 // 0, 1, 3, "raises"))
    with pytest.raises(ZeroDivisionError):
        verify_all(max_n=3)
    assert len(forks) == 2 * (_usable_cpus() - 1)
    _no_child_left()
    # a table of one run forks nothing
    assert [r.verdict for r in verify_proofs()] == ["PASS"]
    assert len(forks) == 2 * (_usable_cpus() - 1)


@needs_two_cpus
def test_workers_that_die_cost_no_report(monkeypatch, forks):
    # every run function exits at once in any process but this one, so each
    # worker dies on the first run it claims, and sends nothing
    want = json.dumps([r.to_json() for r in verify_all(max_n=4)])
    me = os.getpid()

    def dying(run):
        def run_here(**params):
            if os.getpid() != me:
                os._exit(1)
            return run(**params)
        return run_here

    for name, defn in REGISTRY.items():
        monkeypatch.setitem(REGISTRY, name, defn._replace(run=dying(defn.run)))
    forks.clear()
    assert json.dumps([r.to_json() for r in verify_all(max_n=4)]) == want
    assert len(forks) == _usable_cpus() - 1
    _no_child_left()


@needs_two_cpus
def test_a_replaced_verify_sees_every_run(monkeypatch, forks):
    # a wrapper around ``verify`` (a call counter here, a tracer that wraps
    # every public function elsewhere) would see only its own process's
    # share of the runs, so nothing forks while it is installed
    import eulab.checks

    calls = []

    def counting(name, **params):
        calls.append((name, params))
        return verify(name, **params)

    monkeypatch.setattr(eulab.checks, "verify", counting)
    reports = verify_all(max_n=3)
    assert calls == [(name, params) for name, defn in REGISTRY.items()
                     for params in defn.sweep(3)]
    assert len(calls) == sum(r.witness["runs"] for r in reports)
    assert forks == []
    monkeypatch.setattr(eulab.checks, "verify", verify)  # the forks fixture stays
    verify_all(max_n=3)
    assert len(forks) == _usable_cpus() - 1
    _no_child_left()


def test_verify_all_runs_every_run_itself_when_fork_fails(monkeypatch):
    def fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", fork)
    text = json.dumps([r.to_json() for r in verify_all(max_n=3)], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "877982ed4e09f1e82dcafda9870603b8597426ed7a6bebebe71079e0af3c786a"
    )


def test_verify_all_forks_nothing_while_another_thread_runs(monkeypatch):
    def fork():
        raise AssertionError("forked while another thread was running")

    monkeypatch.setattr(os, "fork", fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        text = json.dumps([r.to_json() for r in verify_all(max_n=3)], sort_keys=True)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "877982ed4e09f1e82dcafda9870603b8597426ed7a6bebebe71079e0af3c786a"
    )
