"""Command-line interface.

Exit codes: 0 success (all verdicts PASS), 1 any FAIL verdict, 2 usage or
input error, 3 enumeration-cap rejection.  Every command takes --json for a
machine-readable payload that round-trips into the library types.
"""

from __future__ import annotations

import argparse
import json
import sys

from .action import orbit, orbit_dot
from .bijection import mirror, mirror_pairs
from .checks import CLASSES, PROOFS, REGISTRY, verify, verify_all, verify_proofs
from .enumerators import KINDS, build
from .errors import CapExceededError, EulabError, ValueOutOfRangeError
from .gamma import ROUTES
from .grammar import BUILTIN_SOURCES, builtin, derive, parse_grammar
from .perms import format_perm, parse_perm, stats


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=False))


def _cmd_perm(args) -> int:
    word = parse_perm(args.word)
    if args.action == "stats":
        s = stats(word)
        if args.json:
            _emit(s._asdict())
        else:
            print(
                f"des={s.des} asc={s.asc} M={s.peaks} V={s.valleys} "
                f"da={s.double_asc} dd={s.double_desc} "
                f"lrmin={s.lrmin} rlmin={s.rlmin}"
            )
        return 0
    orb = orbit(word)
    if args.dot:
        print(orbit_dot(orb))
    elif args.json:
        _emit(
            {
                "size": orb.size,
                "representative": format_perm(orb.representative),
                "members": [format_perm(m) for m in orb.members],
            }
        )
    else:
        print(f"size={orb.size} rep={format_perm(orb.representative)}")
        for m in orb.members:
            print(format_perm(m))
    return 0


def _cmd_poly(args) -> int:
    enum = build(args.kind, args.n, getattr(args, "klass", None))
    if args.json:
        _emit(enum.to_json())
    else:
        print(enum.value.pretty())
    return 0


def _cmd_gamma(args) -> int:
    gammas = ROUTES[args.interp](args.n)
    if args.json:
        _emit({"n": args.n, "interp": args.interp, "gamma": [g.to_json() for g in gammas]})
    else:
        for k, g in enumerate(gammas):
            print(f"gamma[{k}] = {g.pretty()}")
    return 0


def _cmd_grammar(args) -> int:
    if args.builtin:
        g = builtin(args.builtin)
    else:
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:  # a missing file, a directory, bad bytes
            print(f"error: {exc}", file=sys.stderr)
            return 2
        g = parse_grammar(text)
    result = derive(g, args.start, args.steps)
    if args.json:
        _emit({"start": args.start, "steps": args.steps, "value": result.to_json()})
    else:
        print(result.pretty())
    return 0


def _cmd_bijection(args) -> int:
    if args.action == "phi":
        word = parse_perm(args.word)
        image = mirror(word)
        if args.json:
            _emit({"word": format_perm(word), "image": format_perm(image)})
        else:
            print(format_perm(image))
        return 0
    pairs = mirror_pairs(args.n)  # streamed: both forms print as they go
    if args.json:  # the ``_emit`` layout, written pair by pair
        write, sep = sys.stdout.write, "\n"
        write(f'{{\n  "n": {args.n},\n  "pairs": [')
        for w, p in pairs:
            a, b = json.dumps(format_perm(w)), json.dumps(format_perm(p))
            write(f"{sep}    [\n      {a},\n      {b}\n    ]")
            sep = ",\n"
        write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")
    else:
        for w, p in pairs:
            tail = " (fixed)" if w == p else ""
            print(f"{format_perm(w)} <-> {format_perm(p)}{tail}")
    return 0


# each flag of ``eulab verify`` -> the parameter it sets (its argparse dest)
_VERIFY_FLAGS = {"-n": "n", "-a": "a", "-b": "b", "--class": "klass", "--max-n": "max_n"}
# each table-wide run of ``eulab verify`` -> (the parameters it takes, its function)
_VERIFY_TABLES = {"all": (("max_n",), verify_all), "proofs": ((), verify_proofs)}


def _cmd_verify(args) -> int:
    sweep = _VERIFY_TABLES.get(args.check)
    # a table-wide run takes its own flags; one check the flags of its parameters
    takes = sweep[0] if sweep else {**REGISTRY, **PROOFS}[args.check].params
    params = {p: getattr(args, p) for p in _VERIFY_FLAGS.values() if getattr(args, p) is not None}
    stray = [f for f, p in _VERIFY_FLAGS.items() if p in params and p not in takes]
    if stray:
        target = f"'{args.check}'" if sweep else f"check {args.check!r}"
        raise ValueOutOfRangeError(f"{target} does not take {', '.join(stray)}")
    if sweep:
        reports = sweep[1](**params)
        if args.json:
            _emit([r.to_json() for r in reports])
        else:
            for r in reports:
                print(f"{r.verdict} {r.check} ({r.params.get('sweep', '')})")
        return 0 if all(r.passed for r in reports) else 1

    # a check that takes a class runs over every class when none is named
    fan_out = "klass" in takes and args.klass is None
    runs = [{"klass": c, **params} for c in CLASSES] if fan_out else [params]
    reports = [verify(args.check, **p) for p in runs]
    if args.json:
        payload = [r.to_json() for r in reports]
        _emit(payload if fan_out else payload[0])
    else:
        for r in reports:
            print(r.line())
            for key, value in (r.witness or {}).items():
                print(f"  {key}: {value}")
    return 0 if all(r.passed for r in reports) else 1


def _checks_epilog() -> str:
    """Each name of the two check tables with its summary, wrapped to 79
    columns by hand (``textwrap`` would add to the import time of every
    command): the rows that 'proofs' runs, then those that 'all' sweeps."""
    width = max(map(len, [*REGISTRY, *PROOFS]))
    lines = []
    for title, table in (("proofs (run once each by 'proofs'):", PROOFS),
                         ("checks (swept by 'all'):", REGISTRY)):
        lines.append(title)
        for name, defn in table.items():
            line = f"  {name:<{width}} "
            for word in defn.summary.split():
                if len(line) + 1 + len(word) > 79:
                    lines.append(line)
                    line = " " * (width + 3)
                line += " " + word
            lines.append(line)
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulab",
        description="Exact enumeration lab for descent statistics on "
        "permutations with a decreasing prefix.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_perm = sub.add_parser("perm", help="statistics and orbits of one word")
    perm_sub = p_perm.add_subparsers(dest="action", required=True)
    p_stats = perm_sub.add_parser("stats", help="statistic profile of a word")
    p_stats.add_argument("word", help='permutation, e.g. "2 1 3"')
    p_stats.add_argument("--json", action="store_true")
    p_orbit = perm_sub.add_parser("orbit", help="toggle-action orbit of a word")
    p_orbit.add_argument("word")
    fmt = p_orbit.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--dot", action="store_true", help="emit a DOT graph")

    p_poly = sub.add_parser("poly", help="statistic-generating polynomials")
    poly_sub = p_poly.add_subparsers(dest="kind", required=True)
    for kind, spec in KINDS.items():
        pk = poly_sub.add_parser(kind.value, help=spec.help)
        pk.add_argument("-n", type=int, required=True)
        if len(spec.classes) > 1:
            pk.add_argument(
                "--class", dest="klass", choices=[c.value for c in spec.classes],
                help=f"class to sum over (default {spec.classes[0].value})",
            )
        pk.add_argument("--json", action="store_true")

    p_gamma = sub.add_parser("gamma", help="basis coefficients of the enumerator")
    p_gamma.add_argument("-n", type=int, required=True)
    p_gamma.add_argument(
        "--interp",
        choices=list(ROUTES),
        default="expand",
        help="peeling (expand) or one of the three enumeration routes",
    )
    p_gamma.add_argument("--json", action="store_true")

    p_grammar = sub.add_parser("grammar", help="rule-set formal derivatives")
    grammar_sub = p_grammar.add_subparsers(dest="action", required=True)
    p_derive = grammar_sub.add_parser("derive", help="apply the derivative repeatedly")
    src = p_derive.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="rule-set file")
    src.add_argument("--builtin", choices=BUILTIN_SOURCES, help="built-in rule set")
    p_derive.add_argument("--start", required=True, help="start polynomial, e.g. a or a*b")
    p_derive.add_argument("--steps", type=int, required=True)
    p_derive.add_argument("--json", action="store_true")

    p_bij = sub.add_parser("bijection", help="the statistic-reversing involution")
    bij_sub = p_bij.add_subparsers(dest="action", required=True)
    p_phi = bij_sub.add_parser("phi", help="image of one word")
    p_phi.add_argument("word")
    p_phi.add_argument("--json", action="store_true")
    p_table = bij_sub.add_parser("table", help="full correspondence at size n")
    p_table.add_argument("-n", type=int, required=True)
    p_table.add_argument("--json", action="store_true")

    p_verify = sub.add_parser(
        "verify",
        help="run identity checks",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=_checks_epilog(),
    )
    p_verify.add_argument(
        "check",
        metavar="check",
        choices=(*_VERIFY_TABLES, *REGISTRY, *PROOFS),
        help="'all', 'proofs' or one check of: " + ", ".join([*REGISTRY, *PROOFS]),
    )
    p_verify.add_argument("-n", type=int)
    p_verify.add_argument("-a", type=int)
    p_verify.add_argument("-b", type=int)
    p_verify.add_argument(
        "--class", dest="klass", choices=CLASSES, help="class for checks that take one"
    )
    p_verify.add_argument("--max-n", type=int, help="sweep bound for 'all'")
    p_verify.add_argument("--json", action="store_true")

    return parser


_HANDLERS = {
    "perm": _cmd_perm,
    "poly": _cmd_poly,
    "gamma": _cmd_gamma,
    "grammar": _cmd_grammar,
    "bijection": _cmd_bijection,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except EulabError as exc:
        print(f"error [{exc.code}]: {exc.message}", file=sys.stderr)
        return 3 if isinstance(exc, CapExceededError) else 2


def entry() -> None:
    sys.exit(main())
