"""Command-line surface: text output, JSON round-trips, exit codes."""

import hashlib
import json

import pytest

from eulab.checks import PROOFS, REGISTRY, CheckReport, verify_proofs
from eulab.cli import build_parser, main
from eulab.enumerators import Enumerator, EnumeratorKind, build
from eulab.gamma import ROUTES
from eulab.perms import PermClass, parse_perm
from eulab.poly import MultiPoly, parse_poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_perm_stats_text(capsys):
    code, out, _ = run(capsys, "perm", "stats", "2 1 3")
    assert code == 0
    assert out.strip() == "des=1 asc=1 M=0 V=1 da=1 dd=1 lrmin=2 rlmin=2"


def test_perm_stats_json(capsys):
    code, out, _ = run(capsys, "perm", "stats", "2 1 3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["des"] == 1
    assert payload["lrmin"] == 2


def test_perm_orbit_text(capsys):
    code, out, _ = run(capsys, "perm", "orbit", "2 1 3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "size=4 rep=1 2 3"
    assert lines[1:] == ["1 2 3", "2 1 3", "3 1 2", "3 2 1"]


def test_perm_orbit_dot(capsys):
    code, out, _ = run(capsys, "perm", "orbit", "2 1 3", "--dot")
    assert code == 0
    assert out.startswith("graph ")
    assert '"1 2 3" [style=bold]' in out


def test_perm_orbit_json(capsys):
    code, out, _ = run(capsys, "perm", "orbit", "2 1 3", "--json")
    payload = json.loads(out)
    assert payload["size"] == 4
    assert parse_perm(payload["representative"]) == (1, 2, 3)
    assert [parse_perm(w) for w in payload["members"]] == [
        (1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1),
    ]


def test_poly_commands(capsys):
    code, out, _ = run(capsys, "poly", "bse", "-n", "2")
    assert code == 0
    assert out.strip() == "α^2*x^2 + 2*α^2*x*y + α^2*y^2 + α*x*y"

    code, out, _ = run(capsys, "poly", "ptilde", "-n", "1")
    assert code == 0
    assert out.strip() == "α*u3 + α*u5"


def test_poly_json_round_trip(capsys):
    # one subcommand per kind in enumerators.KINDS
    for kind in EnumeratorKind:
        code, out, _ = run(capsys, "poly", kind.value, "-n", "2", "--json")
        assert code == 0
        e = Enumerator.from_json(json.loads(out))
        assert e.value == build(kind, 2).value


def test_poly_class_option(capsys):
    code, out, _ = run(capsys, "poly", "refined", "-n", "2", "--class", "sym")
    assert code == 0
    assert out.strip() == build(EnumeratorKind.REFINED, 2, PermClass.SYM).value.pretty()
    # only a kind over more than one class takes --class
    with pytest.raises(SystemExit) as info:
        main(["poly", "bse", "-n", "2", "--class", "sym"])
    assert info.value.code == 2


def test_gamma_text(capsys):
    code, out, _ = run(capsys, "gamma", "-n", "4")
    assert code == 0
    assert out.splitlines() == [
        "gamma[0] = α^4",
        "gamma[1] = 6*α^3 + 4*α^2 + α",
        "gamma[2] = 3*α^2 + 2*α",
    ]


@pytest.mark.parametrize("interp", ["1", "2", "3"])
def test_gamma_interps_match(capsys, interp):
    code, out, _ = run(capsys, "gamma", "-n", "4", "--interp", interp)
    assert code == 0
    assert "gamma[2] = 3*α^2 + 2*α" in out


@pytest.mark.parametrize("interp", ["expand", "1", "2", "3"])
def test_gamma_at_n_zero(capsys, interp):
    assert run(capsys, "gamma", "-n", "0", "--interp", interp) == (0, "gamma[0] = 1\n", "")


def test_every_route_rejects_a_negative_n_alike(capsys):
    # one range check in front of every row of the route table
    got = {interp: run(capsys, "gamma", "-n", "-1", "--interp", interp) for interp in ROUTES}
    assert set(got.values()) == {
        (2, "", "error [VALUE_OUT_OF_RANGE]: n must be at least 0, got -1\n")
    }


def test_gamma_json(capsys):
    code, out, _ = run(capsys, "gamma", "-n", "2", "--json")
    payload = json.loads(out)
    assert payload["n"] == 2
    gammas = [MultiPoly.from_json(g) for g in payload["gamma"]]
    assert gammas == [parse_poly("al^2"), parse_poly("al")]


def _interp_choices() -> list:
    gamma = build_parser()._subparsers._group_actions[0].choices["gamma"]
    return next(a.choices for a in gamma._actions if a.dest == "interp")


def test_interp_choices_are_the_route_table_in_order():
    assert _interp_choices() == list(ROUTES) == ["1", "2", "3", "expand"]


def test_a_new_route_row_is_an_interp_choice(monkeypatch, capsys):
    monkeypatch.setitem(ROUTES, "double", lambda n: [2 * g for g in ROUTES["expand"](n)])
    assert _interp_choices() == ["1", "2", "3", "expand", "double"]
    assert run(capsys, "gamma", "-n", "2", "--interp", "double") == (
        0, "gamma[0] = 2*α^2\ngamma[1] = 2*α\n", "")


# sha256 of the stdout of ``eulab gamma -n 6 --interp X --json``
GAMMA_JSON_DIGESTS = {
    "1": "7bf7512c489bb04bcae1cc592b65632d15e09d9321ebab79436ddb3af6d80cc7",
    "2": "1c1efe42eb29af6f61eb637b49aa751d9682c9de014551957d1be9c8393f38ee",
    "3": "7778ff002612d6c6dd9ecd7771430b436487c5c11fcb36badc5b9711dfd29324",
    "expand": "7ba9d597f622fba37e55772fd7fb0689d35b415f8bf5f895f3d30ac58ff204a2",
}


@pytest.mark.parametrize("interp", GAMMA_JSON_DIGESTS)
def test_gamma_json_output_is_pinned(capsys, interp):
    code, out, err = run(capsys, "gamma", "-n", "6", "--interp", interp, "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GAMMA_JSON_DIGESTS[interp]


def test_gamma_help_is_pinned(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the help to the terminal width
    with pytest.raises(SystemExit) as info:
        main(["gamma", "--help"])
    assert info.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "f346badd251d5a4028dc568fafb7101275916717627680ff133b0998696a8b26"
    )


def test_grammar_derive_file(tmp_path, capsys):
    path = tmp_path / "rules.txt"
    path.write_text("a -> a*al*(z+y); x -> x*y; y -> x*y;\n")
    code, out, _ = run(
        capsys, "grammar", "derive", "--file", str(path), "--start", "a",
        "--steps", "1",
    )
    assert code == 0
    assert out.strip() == "a*α*y + a*α*z"


def test_grammar_derive_parses_start(tmp_path, capsys):
    path = tmp_path / "rules.txt"
    path.write_text("a -> a*b;\n")
    derive = ("grammar", "derive", "--file", str(path), "--steps", "1", "--start")
    assert run(capsys, *derive, "a") == (0, "a*b\n", "")
    assert run(capsys, *derive, "a*b") == (0, "a*b^2\n", "")
    code, out, err = run(capsys, *derive, "a*(b")
    assert (code, out) == (2, "")
    assert "SYNTAX_ERROR" in err and "Traceback" not in err


def test_grammar_derive_builtin_json(capsys):
    code, out, _ = run(
        capsys, "grammar", "derive", "--builtin", "five-variable",
        "--start", "a", "--steps", "2", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["start"] == "a" and payload["steps"] == 2
    got = MultiPoly.from_json(payload["value"])
    assert got == parse_poly("a") * build(EnumeratorKind.PTILDE, 2).value


def test_grammar_builtin_choices_come_from_the_rule_table(monkeypatch, capsys):
    import eulab.grammar

    monkeypatch.setitem(eulab.grammar.BUILTIN_SOURCES, "one-rule", "a -> a*b;")
    args = build_parser().parse_args(
        ["grammar", "derive", "--builtin", "one-rule", "--start", "a", "--steps", "1"]
    )
    assert args.builtin == "one-rule"
    assert run(capsys, "grammar", "derive", "--builtin", "one-rule", "--start", "a",
               "--steps", "1") == (0, "a*b\n", "")


def test_grammar_derive_missing_file(tmp_path, capsys):
    # a missing file, a directory and a file that is not UTF-8 are input
    # errors (exit 2), not a traceback and not the FAIL exit code 1
    (tmp_path / "latin1.txt").write_bytes("x -> \u00e9 ;".encode("latin-1"))
    for name in ("nope.txt", ".", "latin1.txt"):
        code, _, err = run(
            capsys, "grammar", "derive", "--file", str(tmp_path / name),
            "--start", "a", "--steps", "1",
        )
        assert code == 2, name
        assert err.startswith("error: "), name


def test_bijection_phi(capsys):
    code, out, _ = run(capsys, "bijection", "phi", "5 4 1 2 7 3 6 10 9 8")
    assert code == 0
    assert out.strip() == "6 2 1 7 3 4 5 9 10 8"


def test_bijection_table(capsys):
    code, out, _ = run(capsys, "bijection", "table", "-n", "3")
    assert code == 0
    assert out.splitlines() == [
        "1 2 3 <-> 3 2 1",
        "1 3 2 <-> 1 3 2 (fixed)",
        "2 1 3 <-> 3 1 2",
        "3 1 2 <-> 2 1 3",
        "3 2 1 <-> 1 2 3",
    ]


def test_bijection_table_on_no_letters(capsys):
    # the empty word is the one decreasing-prefix word on 0 letters
    assert run(capsys, "bijection", "table", "-n", "0") == (0, " <->  (fixed)\n", "")


def test_bijection_table_prints_each_pair_as_it_is_generated(capsys, monkeypatch):
    import eulab.cli
    from eulab.bijection import mirror_pairs

    printed = []  # stdout so far, read each time the next pair is asked for

    def watched(n):
        for pair in mirror_pairs(n):
            printed.append(capsys.readouterr().out)
            yield pair

    monkeypatch.setattr(eulab.cli, "mirror_pairs", watched)
    code, last, _ = run(capsys, "bijection", "table", "-n", "3")
    assert code == 0
    assert printed[:2] == ["", "1 2 3 <-> 3 2 1\n"]
    assert "".join(printed) + last == (
        "1 2 3 <-> 3 2 1\n1 3 2 <-> 1 3 2 (fixed)\n2 1 3 <-> 3 1 2\n"
        "3 1 2 <-> 2 1 3\n3 2 1 <-> 1 2 3\n"
    )


def test_bijection_table_json(capsys):
    code, out, _ = run(capsys, "bijection", "table", "-n", "3", "--json")
    payload = json.loads(out)
    assert payload["n"] == 3
    pairs = {parse_perm(w): parse_perm(img) for w, img in payload["pairs"]}
    assert pairs[(1, 2, 3)] == (3, 2, 1)
    assert len(pairs) == 5


@pytest.mark.parametrize("n", range(7))
def test_bijection_table_json_is_the_emitted_payload(capsys, n):
    # written pair by pair, in the layout of json.dumps(payload, indent=2)
    from eulab.bijection import pair_table
    from eulab.perms import format_perm

    payload = {"n": n, "pairs": [[format_perm(w), format_perm(p)] for w, p in pair_table(n)]}
    assert run(capsys, "bijection", "table", "-n", str(n), "--json") == (
        0, json.dumps(payload, indent=2) + "\n", "")


def _verify_help(monkeypatch, capsys) -> str:
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main(["verify", "--help"])
    assert info.value.code == 0
    return capsys.readouterr().out


def test_verify_help_lists_every_check_with_its_summary(monkeypatch, capsys):
    out = _verify_help(monkeypatch, capsys)
    assert max(map(len, out.splitlines())) <= 79
    words = " ".join(out.split())  # the summaries wrap across lines
    for name, defn in REGISTRY.items():
        assert f" {name} {' '.join(defn.summary.split())}" in words, name


def test_verify_help_is_read_off_the_registry(monkeypatch, capsys):
    monkeypatch.setitem(REGISTRY, "extra", REGISTRY["pip"]._replace(
        name="extra", summary="a row added to the table alone"))
    out = _verify_help(monkeypatch, capsys)
    assert out.rstrip().endswith("extra           a row added to the table alone")


def test_verify_help_lists_the_proof_rows_too(monkeypatch, capsys):
    out = _verify_help(monkeypatch, capsys)
    assert max(map(len, out.splitlines())) <= 79
    words = " ".join(out.split())
    assert "profile-rules" in PROOFS
    for name, defn in PROOFS.items():
        assert f" {name} {' '.join(defn.summary.split())}" in words, name


def test_verify_proofs(capsys):
    assert run(capsys, "verify", "proofs") == (0, "PASS profile-rules (once)\n", "")
    code, out, err = run(capsys, "verify", "proofs", "--json")
    assert (code, err) == (0, "")
    assert [CheckReport.from_json(r) for r in json.loads(out)] == verify_proofs()
    # one proof row runs on its own, with its own witness
    assert run(capsys, "verify", "profile-rules") == (0, "PASS profile-rules\n  tables: 37\n", "")


@pytest.mark.parametrize("argv", [("proofs", "-n", "3"), ("proofs", "--max-n", "3"),
                                  ("profile-rules", "--class", "sym")])
def test_verify_proofs_takes_no_parameter(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert f"does not take {argv[1]}" in err


def test_verify_proofs_exit_one_on_a_mutated_rule_set(monkeypatch, capsys, cold_profile_route):
    import eulab.grammar

    source = eulab.grammar.BUILTIN_SOURCES["profile-prw"]
    assert "F -> F*ldd*x*l;" in source
    monkeypatch.setitem(eulab.grammar.BUILTIN_SOURCES, "profile-prw",
                        source.replace("F -> F*ldd*x*l;", "F -> F*ldd*x;"))
    code, out, _ = run(capsys, "verify", "proofs")
    assert (code, out) == (1, "FAIL profile-rules (once)\n")
    code, out, _ = run(capsys, "verify", "profile-rules")
    assert code == 1
    assert out.startswith("FAIL profile-rules\n  class: prw\n  letters: 3\n  profile: {")


def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "secant", "-n", "3")
    assert code == 0
    assert out.startswith("PASS secant")


def test_verify_rule_set_check_prints_no_witness(capsys):
    # the rule-set comparison returns None, its PASS witness, not the enumerator
    code, out, _ = run(capsys, "verify", "grammar-31", "-n", "3")
    assert (code, out) == (0, "PASS grammar-31 n=3\n")
    code, out, _ = run(capsys, "verify", "grammar-31", "-n", "3", "--json")
    assert code == 0
    assert json.loads(out)["witness"] is None


def test_verify_single_check_json(capsys):
    code, out, _ = run(capsys, "verify", "cgk-alpha", "-a", "2", "-b", "1", "--json")
    assert code == 0
    report = CheckReport.from_json(json.loads(out))
    assert report.passed
    assert report.params == {"a": 2, "b": 1}


def test_verify_all_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "all", "--max-n", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 14
    assert all(line.startswith("PASS ") for line in lines)


def test_verify_class_fan_out(capsys):
    # a check that takes a class runs once per class unless --class names one
    code, out, _ = run(capsys, "verify", "pip", "-n", "3")
    assert code == 0
    reports = [line for line in out.splitlines() if not line.startswith("  ")]
    assert reports == ["PASS pip klass=sym n=3", "PASS pip klass=prw n=3"]

    code, out, _ = run(capsys, "verify", "pip", "-n", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list)
    assert [CheckReport.from_json(p).params for p in payload] == [
        {"klass": "sym", "n": 3},
        {"klass": "prw", "n": 3},
    ]

    code, out, _ = run(capsys, "verify", "pip", "-n", "3", "--class", "prw", "--json")
    assert code == 0
    report = CheckReport.from_json(json.loads(out))
    assert report.params == {"klass": "prw", "n": 3}


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "secant"),
        ("verify", "secant", "-n", "3", "-a", "2"),
        ("verify", "secant", "-n", "3", "--class", "sym"),
        ("verify", "secant", "-n", "3", "-b", "5"),
        ("verify", "cgk-alpha", "-n", "3"),
        # flags that the sweep does not take, and --max-n that a single check does not
        ("verify", "all", "-n", "3"),
        ("verify", "all", "-a", "2"),
        ("verify", "all", "-b", "2"),
        ("verify", "all", "--class", "sym"),
        ("verify", "secant", "-n", "3", "--max-n", "9"),
    ],
)
def test_verify_missing_or_unknown_parameter_exit_two(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "VALUE_OUT_OF_RANGE" in err


@pytest.mark.parametrize(
    "argv, flags",
    [
        (("verify", "secant", "-n", "3", "--class", "sym"), "--class"),
        (("verify", "secant", "-n", "3", "-a", "5"), "-a"),
        (("verify", "cgk-alpha", "-a", "2", "-b", "1", "-n", "3", "--class", "sym"),
         "-n, --class"),
        (("verify", "all", "-a", "2", "--class", "sym"), "-a, --class"),
    ],
)
def test_verify_names_a_stray_flag_as_typed(capsys, argv, flags):
    # rejected before any check runs, so nothing is printed on stdout
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    target = "'all'" if argv[1] == "all" else f"check {argv[1]!r}"
    assert err.strip() == f"error [VALUE_OUT_OF_RANGE]: {target} does not take {flags}"


@pytest.mark.parametrize(
    "argv", [("verify", "all", "--seed", "1"), ("verify", "group-action", "-n", "3", "--seed", "1")]
)
def test_verify_has_no_seed_flag(capsys, argv):
    # no check samples, so there is no seed to pass: a usage error
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_verify_group_action_reports_its_one_parameter(capsys):
    assert run(capsys, "verify", "group-action", "-n", "3") == (0, "PASS group-action n=3\n", "")


@pytest.mark.parametrize(
    "check", [name for name, defn in REGISTRY.items() if "n" in defn.params]
)
def test_verify_n_below_the_floor_exit_two(capsys, check):
    # one message for every check, and no report printed, not even a PASS
    code, out, err = run(capsys, "verify", check, "-n", "0")
    assert (code, out) == (2, "")
    assert err.strip() == f"error [VALUE_OUT_OF_RANGE]: check {check!r} takes n >= 1, got n=0"


def test_verify_unknown_check(capsys):
    # argparse pre-filters the check name, so this is a usage error
    with pytest.raises(SystemExit) as info:
        main(["verify", "no-such-check", "-n", "2"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "no-such-check" in err
    assert "usage" in err


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["perm", "stats", "2 1 3", "--frobnicate"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "frobnicate" in err
    assert "usage" in err


def test_invalid_word_exit_two(capsys):
    for word in ("1 1 2", "2.0 1"):
        code, _, err = run(capsys, "perm", "stats", word)
        assert code == 2
        assert "INVALID_PERMUTATION" in err


def test_grammar_file_with_non_ascii_digit_exit_two(tmp_path, capsys):
    path = tmp_path / "r.txt"
    path.write_text("a -> a*x^\u00b2;\n", encoding="utf-8")
    code, out, err = run(
        capsys, "grammar", "derive", "--file", str(path), "--start", "a", "--steps", "1"
    )
    assert (code, out) == (2, "")
    assert "SYNTAX_ERROR" in err and "Traceback" not in err


@pytest.mark.parametrize("max_n", ["-5", "1"])
def test_verify_all_max_n_without_runs_exit_two(capsys, max_n):
    code, out, err = run(capsys, "verify", "all", "--max-n", max_n)
    assert (code, out) == (2, "")
    assert "VALUE_OUT_OF_RANGE" in err


def test_cap_exit_three(capsys, monkeypatch):
    monkeypatch.setenv("EULAB_MAX_N", "3")
    code, _, err = run(capsys, "poly", "bse", "-n", "6")
    assert code == 3
    assert "CAP_EXCEEDED" in err


@pytest.mark.parametrize("raw", ["0", "-3"])
def test_nonpositive_cap_exit_two(capsys, monkeypatch, raw):
    monkeypatch.setenv("EULAB_MAX_N", raw)
    code, _, err = run(capsys, "poly", "bse", "-n", "1")
    assert code == 2
    assert "VALUE_OUT_OF_RANGE" in err


def test_cap_rejected_before_any_word(capsys, monkeypatch, library_caches):
    # with a cold profile cache, the rejection must come before enumeration
    import eulab.checks
    import eulab.enumerators
    import eulab.perms
    from eulab.checks import verify
    from eulab.errors import CapExceededError
    from eulab.perms import PermClass

    def no_words(word):
        raise AssertionError("a word was generated past the cap")

    for module in (eulab.perms, eulab.enumerators, eulab.checks):
        for name in ("stats", "_stats"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_words)
    monkeypatch.setenv("EULAB_MAX_N", "6")
    for cache in library_caches:
        cache.cache_clear()

    code, _, err = run(capsys, "verify", "gamm", "-n", "8", "--class", "sym")
    assert code == 3
    assert "CAP_EXCEEDED" in err
    with pytest.raises(CapExceededError):
        verify("gamm", klass="sym", n=8)
    with pytest.raises(CapExceededError):
        eulab.enumerators.profile_counts(PermClass.SYM, 8)


def test_verify_fail_exit_one(capsys):
    from eulab.checks import CheckDef, Mismatch, REGISTRY

    def always_fail(n):
        raise Mismatch(detail="no")

    defn = CheckDef(
        name="always-fail",
        summary="fails",
        run=always_fail,
        lo=1,
        hi=1,
    )
    REGISTRY["always-fail"] = defn
    try:
        code, out, _ = run(capsys, "verify", "always-fail", "-n", "1")
        assert code == 1
        assert out.startswith("FAIL always-fail")

        code, out, _ = run(capsys, "verify", "all", "--max-n", "2")
        assert code == 1
        assert "FAIL always-fail" in out
    finally:
        del REGISTRY["always-fail"]
