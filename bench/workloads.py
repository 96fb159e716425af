"""Job lists of the eulab benchmark, with correctness oracles that do not
come from the code under test.

A workload is a fixed list of jobs.  Each job is one library call a user
makes (``eulab verify all``, or one cold CLI query), timed on its own; its
output is then checked, untimed, against closed forms computed here:

* |PRW_{n+1}| = A000522(n) = sum_j n!/j!  (words on n+1 letters whose
  prefix ending at 1 decreases);
* |S_n| = n!;
* sum_k gamma_k(al=1) * 2^(n-2k) = A000522(n), with every gamma_k a
  polynomial with nonnegative integer coefficients;
* the images of ``pair_table`` are a permutation of its domain.

Every output is also rendered as canonical text whose sha256 must equal the
one recorded in ``DIGESTS`` for that job.

Jobs call the library through the ``eulab`` package attributes at call time,
so a tracer that swaps those attributes sees every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

import eulab

WORKLOADS = ("verify-sweep", "class-scan", "grammar-deep")

# The library's lru caches, held before any tracer wraps their names (a
# wrapper has no cache_clear).  A cold process starts with them empty.
_CACHES = list({id(obj): obj for name, mod in sorted(sys.modules.items())
                if name == "eulab" or name.startswith("eulab.")
                for obj in vars(mod).values() if hasattr(obj, "cache_clear")}.values())

# Job sizes.  ``BENCH`` is what the benchmark times: each job takes a few
# tenths of a second, so a run holds enough repetitions for each job's
# fastest time to be steady on a shared host.  ``FULL`` is the scale of the ROADMAP's
# baseline table (``eulab verify all`` and ``derive(five-variable, 20)``),
# for cross-checks.  ``TINY`` keeps every job and oracle but runs in well
# under a second; the self-tests use it.
BENCH = {"max_n": 5, "prw": 7, "sym": 8, "route12": 7, "route3": 8,
         "pairs": 8, "five": 12, "two": 16}
FULL = {"max_n": None, "prw": 8, "sym": 9, "route12": 8, "route3": 9,
        "pairs": 9, "five": 20, "two": 28}
TINY = {"max_n": 3, "prw": 3, "sym": 4, "route12": 3, "route3": 4,
        "pairs": 4, "five": 4, "two": 5}

# sha256 of each job's canonical output text, recorded at the commit that
# added the benchmark.  A job with no entry is checked by its oracle only.
# Routes 1, 2 and 3 give the same coefficient list at the same n, hence the
# same digest.
DIGESTS = {
    # BENCH
    "verify_all(max_n=5)": "d652203a745a1ea9aa7f59df69c71df1620559fc9e76db371e053b63d8d7e311",
    "build(bse,7)": "0046c2f6a297d5e01c658b6546d796a8c961a9d2c1c32089dd0bc338a0387571",
    "build(se,8)": "599b7a56829b612e5e0f60fbe5507c56ab067db0b526ece1dcaee7ae45ebcd00",
    "gamma_from_class(1,7)": "1fea71543e6a2e1b2fed9675659a787ab3cda885510e3d7a6e494faf04aaf0fc",
    "gamma_from_class(2,7)": "1fea71543e6a2e1b2fed9675659a787ab3cda885510e3d7a6e494faf04aaf0fc",
    "gamma_from_class(3,8)": "dd6a097918a981a32646cc24cdb4d08b4b3265ebe26b44ca6a6a5d396386b921",
    "pair_table(8)": "a4f71d239e7ebb7dbfeb1a973fa5da1c213be66f93436adaede03c9ab85a4b3f",
    "derive(five-variable,12)": "21bacafa182d64339a4b128d2d9b07f1d7114f419024c395f9b80cd4cd223082",
    "derive(two-variable,16)+gamma_expand":
        "9563291045801e5adea27cc8d96953a4f02832a2d0d17d2a171f16b51792bf68",
    # FULL
    "verify_all(max_n=None)": "7ac1e1ca731987b9b7be6220058d48e7fa91cdf8508773843fdcb616bdf59aa7",
    "build(bse,8)": "1d658e1be14d064f4b17926cfed263b7b226d56a1ff1110457d011be4aac0856",
    "build(se,9)": "89508e480ac5b2d5cf7f5777727fb7fd8a119b99ef1f59a5756a8b31ff6fc01e",
    "gamma_from_class(1,8)": "dd6a097918a981a32646cc24cdb4d08b4b3265ebe26b44ca6a6a5d396386b921",
    "gamma_from_class(2,8)": "dd6a097918a981a32646cc24cdb4d08b4b3265ebe26b44ca6a6a5d396386b921",
    "gamma_from_class(3,9)": "b53f11c10ff3a0ffffb602844a38bae4045bae9840e8d96b477eda17783a74fb",
    "pair_table(9)": "e1a821e63319b19f7f67a08928f157e8dba99d593e492c2ff0c415b0cac51fcd",
    "derive(five-variable,20)": "09ffe13efa6b0ac026e44edb6d419ac4291cc8160db5af4442e6cde803565b8a",
    "derive(two-variable,28)+gamma_expand":
        "b890ac5fced91d6a01ccf11ab3f0d0116006966723e12c21c24da3c15f2fbf47",
    # TINY
    "verify_all(max_n=3)": "877982ed4e09f1e82dcafda9870603b8597426ed7a6bebebe71079e0af3c786a",
    "build(bse,3)": "1bd8bf3c3a819410d4e938705e03ed9507d98429e6c547e8fec68a526a730597",
    "build(se,4)": "0dc4e8280109e04ef73f4a371c64bb8a5e8f36c94fb40c3f665b397b7b02d2a1",
    "gamma_from_class(1,3)": "d412156d440f0bc62a5cc0a700a0a94962c12eaf6077433743be41b96477dc4a",
    "gamma_from_class(2,3)": "d412156d440f0bc62a5cc0a700a0a94962c12eaf6077433743be41b96477dc4a",
    "gamma_from_class(3,4)": "b94738895f40161fb2ab5fc5bd3c027365ba526a648969de22edd9b17c9a2cc2",
    "pair_table(4)": "5047b142bee747ae77c597d2e757ee08114fe41c426eba92c98b65e815a6d8e9",
    "derive(five-variable,4)": "893a294707997aff3e1e09a3769b81726ddfe7ea2d8d720f69b51d0d033313d0",
    "derive(two-variable,5)+gamma_expand":
        "e13cc93bf61d65d44e941ea0a163acfde12ecda340b791e2c19b94d5eb61a7f3",
}


class Job(NamedTuple):
    name: str
    run: Callable[[], object]
    # returns (canonical text as an iterable of str, list of oracle problems)
    check: Callable[[object], tuple]


def a000522(n: int) -> int:
    """Arrangements of an n-set: sum_{j=0..n} n!/j!."""
    return sum(math.factorial(n) // math.factorial(j) for j in range(n + 1))


# -- canonical text and evaluation, from the public JSON form only ----------


def _terms(p) -> list:
    return sorted(
        (tuple(sorted(t["exp"].items())), Fraction(t["coef"])) for t in p.to_json()["terms"]
    )


def canon_poly(p) -> str:
    return json.dumps([[list(map(list, m)), str(c)] for m, c in _terms(p)])


def at_ones(p) -> Fraction:
    return sum((c for _, c in _terms(p)), Fraction(0))


def _gamma_problems(gammas, n: int, what: str) -> list:
    problems = []
    for k, g in enumerate(gammas):
        if any(c.denominator != 1 or c < 0 for _, c in _terms(g)):
            problems.append(f"{what}: gamma_{k} is not a nonnegative integer polynomial")
    total = sum(at_ones(g) * 2 ** (n - 2 * k) for k, g in enumerate(gammas))
    if total != a000522(n):
        problems.append(f"{what}: sum gamma_k(1) 2^(n-2k) = {total}, want A000522({n}) = {a000522(n)}")
    return problems


def _count_problem(got, want: int, what: str) -> list:
    return [] if got == want else [f"{what}: {got} at all-ones, want {want}"]


# -- jobs --------------------------------------------------------------------


def _cold(fn: Callable[[], object]) -> Callable[[], object]:
    """A cold CLI query: every cache starts empty, as in a new process."""
    def run():
        for cache in _CACHES:
            cache.cache_clear()
        return fn()
    return run


def _verify_sweep(seed: int, size: dict) -> list:
    def check(reports):
        text = [json.dumps([r.to_json() for r in reports], sort_keys=True)]
        problems = [f"{r.check}: {r.verdict}" for r in reports if r.verdict != "PASS"]
        if len(reports) != 14:
            problems.append(f"{len(reports)} check reports, want 14")
        return text, problems

    max_n = size["max_n"]
    return [Job(f"verify_all(max_n={max_n})",
                _cold(lambda: eulab.verify_all(max_n=max_n, seed=seed)), check)]


def _class_scan(seed: int, size: dict) -> list:
    kind = eulab.EnumeratorKind
    prw, sym, r12, r3, pairs = (size[k] for k in ("prw", "sym", "route12", "route3", "pairs"))

    def build_check(n, want, what):
        return lambda e: ([canon_poly(e.value)], _count_problem(at_ones(e.value), want, what))

    def gamma_check(n, what):
        return lambda gs: ([json.dumps([canon_poly(g) for g in gs])], _gamma_problems(gs, n, what))

    def pairs_check(table):
        # streamed, so the check does not raise the child's peak RSS
        lines = (f"{w} {m}\n" for w, m in table)
        problems = []
        if len(table) != a000522(pairs - 1):
            problems.append(f"pair_table({pairs}): {len(table)} pairs, want {a000522(pairs - 1)}")
        if sorted(m for _, m in table) != sorted(w for w, _ in table):
            problems.append(f"pair_table({pairs}): images differ from the domain")
        return lines, problems

    jobs = [
        Job(f"build(bse,{prw})", _cold(lambda: eulab.build(kind.BSE, prw)),
            build_check(prw, a000522(prw), f"build(bse,{prw})")),
        Job(f"build(se,{sym})", _cold(lambda: eulab.build(kind.SE, sym)),
            build_check(sym, math.factorial(sym), f"build(se,{sym})")),
    ]
    for route, n in ((1, r12), (2, r12), (3, r3)):
        name = f"gamma_from_class({route},{n})"
        jobs.append(Job(name, _cold(lambda route=route, n=n: eulab.gamma_from_class(route, n)),
                        gamma_check(n, name)))
    jobs.append(Job(f"pair_table({pairs})", _cold(lambda: eulab.pair_table(pairs)), pairs_check))
    random.Random(seed).shuffle(jobs)
    return jobs


def _grammar_deep(seed: int, size: dict) -> list:
    five, two = size["five"], size["two"]

    def derive_five():
        return eulab.derive(eulab.builtin("five-variable"), "a", five)

    def derive_two_and_peel():
        derived = eulab.derive(eulab.builtin("two-variable"), "a", two)
        collapsed = derived.rename({"z": "x"}).coefficient({"a": 1})
        return derived, eulab.gamma_expand(collapsed).gammas

    def five_check(p):
        return [canon_poly(p)], _count_problem(at_ones(p), a000522(five), f"derive(five,{five})")

    def two_check(out):
        derived, gammas = out
        text = [json.dumps([canon_poly(derived)] + [canon_poly(g) for g in gammas])]
        problems = _count_problem(at_ones(derived), a000522(two), f"derive(two,{two})")
        return text, problems + _gamma_problems(gammas, two, f"gamma_expand(two,{two})")

    jobs = [
        Job(f"derive(five-variable,{five})", _cold(derive_five), five_check),
        Job(f"derive(two-variable,{two})+gamma_expand", _cold(derive_two_and_peel), two_check),
    ]
    random.Random(seed).shuffle(jobs)
    return jobs


_BUILDERS = {
    "verify-sweep": _verify_sweep,
    "class-scan": _class_scan,
    "grammar-deep": _grammar_deep,
}


def jobs(workload: str, seed: int, size: dict = BENCH) -> list:
    """The job list of one workload; ``seed`` reaches ``verify_all`` and
    fixes the job order of the other two."""
    return _BUILDERS[workload](seed, size)


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
    return h.hexdigest()
