import hashlib
import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ancover.characters import an_character_table
from ancover.cli import _parse_ns, build_parser, main
from ancover.combinatorics import LimitExceeded
from ancover.permutations import parse_permutation
from ancover.suites import SUITES
from test_characters import TABLE_DIGESTS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_ns():
    assert _parse_ns("7,9,11") == (7, 9, 11)
    assert _parse_ns("8-11") == (8, 9, 10, 11)
    assert _parse_ns("5,8-10") == (5, 8, 9, 10)
    assert _parse_ns("7-7") == (7,)
    assert _parse_ns("9,7,7-10,5") == (9, 7, 8, 10, 5)
    with pytest.raises(ValueError):
        _parse_ns("5-3")


def test_parse_ns_rejects_values_above_the_partition_size_limit():
    assert len(_parse_ns("1-10000")) == 10000
    with pytest.raises(ValueError, match="exceeds limit"):
        _parse_ns("1-20000")
    with pytest.raises(ValueError, match="exceeds limit"):
        _parse_ns("7,10001")


def test_frob_command(capsys):
    code, out, _ = run(capsys, "frob", "5", "5:+", "5:+", "2,2,1")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "frob", "5", "5:+", "5:-", "2,2,1", "--json")
    assert code == 0
    assert json.loads(out)["count"] > 0


def test_frob_degree_mismatch_is_usage_error(capsys):
    code, _, err = run(capsys, "frob", "6", "5:+", "5:+", "2,2,1")
    assert code == 2 and "error" in err


def test_cn_command(capsys):
    code, out, _ = run(capsys, "cn", "9", "9:+")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "cn", "7", "7:+", "--json")
    assert json.loads(out)["cn"] == 3


def test_cn_command_past_a_16(capsys):
    # 23 = 3 (mod 4), so the 23-cycle classes have covering number 3.
    code, out, err = run(capsys, "cn", "23", "23:+")
    assert (code, out, err) == (0, "3\n", "")


def test_covers_command(capsys):
    code, out, _ = run(capsys, "covers", "5", "5:+", "5:+")
    assert code == 0
    assert "covered=no" in out and "2,2,1" in out
    code, out, _ = run(capsys, "covers", "5", "5:+", "5:-", "--json")
    data = json.loads(out)
    assert data["covered"] is True and data["uncovered"] == []


def test_table_command_and_limit(capsys, tmp_path):
    # The export is the sorted JSON of the table and a newline, and the
    # JSON is the one the table digests pin.
    path = tmp_path / "a10.json"
    code, out, _ = run(capsys, "table", "10", "--export", str(path))
    assert code == 0 and "A_10" in out
    text = json.dumps(an_character_table(10).to_json_dict(), sort_keys=True)
    assert path.read_text() == text + "\n"
    assert hashlib.sha256(path.read_bytes()[:-1]).hexdigest() == TABLE_DIGESTS[10]
    code, _, err = run(capsys, "table", "25")
    assert code == 2 and "limit" in err
    # The limit is fixed: --limit is no option, so argparse exits 2.
    with pytest.raises(SystemExit) as exc:
        main(["table", "10", "--limit", "10"])
    assert exc.value.code == 2 and "--limit" in capsys.readouterr().err


def test_table_export_path_is_checked_before_the_build(capsys, monkeypatch, tmp_path):
    # An unwritable PATH fails before any build; an n above the table limit
    # neither creates nor truncates PATH.
    import ancover.cli

    def no_table(*args, **kwargs):
        raise AssertionError("built a table")

    monkeypatch.setattr(ancover.cli, "an_character_table", no_table)
    missing = f"{tmp_path / 'missing'}/x.json"
    code, out, err = run(capsys, "table", "22", "--export", missing)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    kept = tmp_path / "kept.json"
    kept.write_text("kept\n")
    for path in (kept, tmp_path / "new.json"):
        code, out, err = run(capsys, "table", "25", "--export", str(path))
        assert code == 2 and out == "" and "limit" in err
    assert kept.read_text() == "kept\n" and not (tmp_path / "new.json").exists()


def test_witness_command(capsys):
    code, out, _ = run(capsys, "witness", "25,11,7", "9,1x34", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == "25,11,7"
    assert len(data["rebuild_log"]) == 2
    code, _, err = run(capsys, "witness", "15,9", "7,5,3,1x9")
    assert code == 2 and "error" in err


def test_witness_odd_mu_rejected(capsys):
    code, _, err = run(capsys, "witness", "25,11,7", "9,4,2,2,1x26")
    assert code == 2 and "even" in err


def test_verify_gleason(capsys):
    code, out, _ = run(capsys, "verify", "gleason", "--n", "7,9")
    assert code == 0
    assert out.count("PASS") == 2


def test_verify_runs_a_repeated_n_once(capsys):
    code, out, _ = run(capsys, "verify", "gleason", "--n", "7,7")
    assert code == 0
    assert out == "PASS gleason n=7: all nontrivial classes hit\n"
    once = run(capsys, "verify", "split-coverage-report", "--n", "5")
    assert once[0] == 0 and once[1].count("\n") == 4
    assert run(capsys, "verify", "split-coverage-report", "--n", "5,5") == once
    assert run(capsys, "verify", "split-coverage-report", "--n", "5-5,5", "--json")[1] == (
        run(capsys, "verify", "split-coverage-report", "--n", "5", "--json")[1]
    )


def test_verify_prop24_output(capsys):
    code, out, _ = run(capsys, "verify", "prop24", "--n", "5,7")
    assert code == 0
    assert out == (
        "PASS prop24 n=5: matches the known exception set\n"
        "PASS prop24 oracle n=5: brute force agrees\n"
        "PASS prop24 n=7: matches the known exception set\n"
        "PASS prop24 oracle n=7: brute force agrees\n"
    )


def test_verify_oracle_equiv_output(capsys, monkeypatch, oracle_equiv_items):
    # The suite's real items, from the session's one run of it (see
    # conftest.py), reach the command through its SUITES entry.
    monkeypatch.setitem(SUITES, "oracle-equiv", lambda: oracle_equiv_items)
    code, out, _ = run(capsys, "verify", "oracle-equiv")
    assert code == 0
    assert out == (
        "PASS oracle-equiv n=5 exhaustive: 125 triples\n"
        "PASS oracle-equiv n=6 exhaustive: 343 triples\n"
        "PASS oracle-equiv n=7 exhaustive: 729 triples\n"
        "PASS oracle-equiv n=8 exhaustive: 2744 triples\n"
        "PASS oracle-equiv n=9 exhaustive: 5832 triples\n"
    )


def test_verify_split_coverage_report_output(capsys):
    code, out, _ = run(capsys, "verify", "split-coverage-report", "--n", "8")
    assert code == 0
    assert out == (
        "n=8 7,1:+ * 7,1:+: covers all nontrivial classes\n"
        "n=8 7,1:+ * 7,1:-: covers all nontrivial classes\n"
        "n=8 7,1:- * 7,1:-: covers all nontrivial classes\n"
        "n=8 5,3:+ * 5,3:+: covers all nontrivial classes\n"
        "n=8 5,3:+ * 5,3:-: misses 2,2,2,2\n"
        "n=8 5,3:- * 5,3:-: covers all nontrivial classes\n"
        "oracle agreement: pass\n"
    )


def test_verify_split_coverage_report_beyond_the_oracle_says_not_checked(capsys):
    code, out, _ = run(capsys, "verify", "split-coverage-report", "--n", "10")
    assert code == 0
    assert out.splitlines()[-1] == "oracle agreement: not checked (all n > 9)"
    code, out, _ = run(capsys, "verify", "split-coverage-report", "--n", "10", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle_agrees"] is None and payload["lines"]


def test_verify_split_coverage_report_without_split_types_says_not_checked(capsys):
    # n = 2 has no split type, so brute force compares nothing.
    code, out, _ = run(capsys, "verify", "split-coverage-report", "--n", "2")
    assert code == 0
    assert out == "oracle agreement: not checked (no split type at n <= 9)\n"
    code, out, _ = run(capsys, "verify", "split-coverage-report", "--n", "2", "--json")
    assert code == 0
    assert json.loads(out) == {
        "schema": 1,
        "suite": "split-coverage-report",
        "lines": [],
        "oracle_agrees": None,
    }


@pytest.mark.parametrize(
    "argv, option",
    [
        (["gleason", "--n", "7", "--trials", "5"], "--trials"),
        (["construction", "--n", "7"], "--n"),
        (["oracle-equiv", "--n", "5"], "--n"),
        (["bounds", "--n", "13"], "--n"),
        (["ancn", "--n", "5", "--trials", "2"], "--trials"),
        (["prop24", "--n", "5", "--trials", "2"], "--trials"),
        (["split-coverage-report", "--n", "8", "--trials", "2"], "--trials"),
        (["gleason", "--n", "7", "--table", "{csv}"], "--table"),
        (["construction", "--table", "{csv}"], "--table"),
        (["split-coverage-report", "--n", "8", "--table", "{csv}"], "--table"),
        (["oracle-equiv", "--trials", "5"], "--trials"),
        (["oracle-equiv", "--seed", "1"], "--seed"),
        (["bounds", "--trials", "5"], "--trials"),
        (["bounds", "--seed", "1"], "--seed"),
    ],
)
def test_verify_option_the_suite_does_not_take_exits_2(capsys, tmp_path, argv, option):
    csv = tmp_path / "clauses.csv"
    argv = [a.format(csv=csv) for a in argv]
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err == f"error: verify {argv[0]} takes no {option}\n"
    assert not csv.exists()


@pytest.mark.parametrize("suite", ["oracle-equiv", "construction", "bounds", "gleason"])
@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_nonpositive_trials_exits_2(capsys, suite, trials):
    # A suite run on no trials would print a vacuous PASS; a suite without
    # trials says so first.
    code, out, err = run(capsys, "verify", suite, "--trials", trials)
    assert code == 2 and out == ""
    if suite == "construction":
        assert err == f"error: --trials must be positive, got {trials}\n"
    else:
        assert err == f"error: verify {suite} takes no --trials\n"


def test_verify_malformed_n_exits_2(capsys):
    code, out, err = run(capsys, "verify", "gleason", "--n", "7-")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_reversed_n_range_exits_2(capsys):
    # A reversed range is a usage error, not an empty list that would run
    # the suite at its default degrees.
    code, out, err = run(capsys, "verify", "gleason", "--n", "5-3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_json_deterministic(capsys):
    args = ("verify", "construction", "--trials", "5", "--json", "--seed", "9")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["passed"] is True
    assert "seed=9" in data["items"][0]["name"]


def test_verify_seed_rejected_by_unseeded_suites(capsys):
    code, out, err = run(capsys, "verify", "ancn", "--seed", "3")
    assert code == 2 and out == ""
    assert err == "error: verify ancn takes no --seed\n"
    code, _, err = run(capsys, "verify", "split-coverage-report", "--n", "8", "--seed", "3")
    assert code == 2 and "takes no --seed" in err


def test_witness_json_deterministic(capsys):
    _, out1, _ = run(capsys, "witness", "21", "2,2,1x17", "--json", "--seed", "5")
    _, out2, _ = run(capsys, "witness", "21", "2,2,1x17", "--json", "--seed", "5")
    assert out1 == out2


def test_ncycles_command(capsys):
    code, out, _ = run(capsys, "ncycles", "9", "(1,2)(3,4)", "9:+", "9:-")
    assert code == 0 and "c*d = (1,2)(3,4)" in out
    code, out, _ = run(capsys, "ncycles", "9", "2 1 4 3 5 6 7 8 9", "9:+", "9:-", "--json")
    data = json.loads(out)
    assert data["g"] == "(1,2)(3,4)"
    code, out, err = run(capsys, "ncycles", "5", "(1,2)(3,4)", "5:+", "5:+")
    assert (code, out, err) == (1, "", "error: 2,2,1 is not in 5:+ * 5:+\n")


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_ncycles_nonpositive_budget_exits_2(capsys, budget):
    # Not exit 1 for "no factorization in 0 trials": no search is run.
    code, out, err = run(capsys, "ncycles", "9", "(1,2)(3,4)", "9:+", "9:-", "--budget", budget)
    assert code == 2 and out == ""
    assert err == f"error: budget must be positive, got {budget}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "5", "--export", "{missing}/a5.json"],
        ["verify", "bounds", "--table", "{missing}/clauses.csv"],
        # An empty path is a path that cannot be opened, not a missing option.
        ["table", "5", "--export", ""],
        ["verify", "bounds", "--table", ""],
    ],
)
def test_unwritable_output_path_exits_2(capsys, tmp_path, argv):
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "No such file or directory" in err


def test_unwritable_csv_path_exits_2_before_the_suite_runs(capsys, monkeypatch, tmp_path):
    def never():
        raise AssertionError("the suite ran")

    monkeypatch.setitem(SUITES, "bounds", never)
    code, out, err = run(capsys, "verify", "bounds", "--table", f"{tmp_path / 'missing'}/x.csv")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "suite, n, least",
    [("gleason", "8", 7), ("ancn", "4", 5), ("prop24", "4", 5), ("prop24", "3", 5)],
)
def test_verify_degree_outside_the_suite_range_exits_2(capsys, monkeypatch, suite, n, least):
    # The range is checked before any table is built.
    import ancover.suites

    def no_table(*args, **kwargs):
        raise AssertionError("built a table")

    monkeypatch.setattr(ancover.suites, "an_character_table", no_table)
    code, out, err = run(capsys, "verify", suite, "--n", n)
    assert code == 2 and out == ""
    assert err == f"error: {suite} needs odd n >= {least}, got n = {n}\n"


def test_verify_degree_above_the_table_limit_exits_2_before_any_build(capsys, monkeypatch):
    import ancover.suites

    def no_table(*args, **kwargs):
        raise AssertionError("built a table")

    monkeypatch.setattr(ancover.suites, "an_character_table", no_table)
    for suite, ns in [
        ("gleason", "7,9,25"),
        ("ancn", "5,25"),
        ("prop24", "5,25"),
        ("split-coverage-report", "8-25"),
    ]:
        code, out, err = run(capsys, "verify", suite, "--n", ns)
        assert (code, out, err) == (2, "", "error: n = 25 exceeds table limit 24\n"), suite


def test_verify_ncycle_suites_at_odd_n_from_15_to_23(capsys):
    # The paper's n-cycle claims past A_16: Gleason's covering, covering
    # number 2 exactly when n = 1 (mod 4), and Proposition 2.4's cover of
    # the classes with at most one fixed point.
    cn = {15: 3, 17: 2, 19: 3, 21: 2, 23: 3}
    expected = {
        "gleason": [f"PASS gleason n={n}: all nontrivial classes hit" for n in cn],
        "ancn": [f"PASS ancn n={n}: cn = [{c}], expected {c}" for n, c in cn.items()],
        "prop24": [f"PASS prop24 n={n}: matches the known exception set" for n in cn],
    }
    for suite, lines in expected.items():
        code, out, _ = run(capsys, "verify", suite, "--n", "15,17,19,21,23")
        assert (code, out.splitlines()) == (0, lines), suite


def test_bounds_suite_with_csv(capsys, tmp_path):
    csv = tmp_path / "clauses.csv"
    code, out, _ = run(capsys, "verify", "bounds", "--table", str(csv))
    assert code == 0
    header, *rows = csv.read_text().splitlines()
    assert header == "n,hook_sum,cube_term,mixed_term"
    assert rows[0].startswith("13,")
    assert len(rows) == len(range(13, 202, 2))


BOUNDS_GOLDEN = [
    "PASS prop24 odd n in [13,201]: all clauses exact",
    "PASS prop24 weakly decreasing: clause values compared exactly",
    "PASS hook bound dominance n<=13: exhaustive table scan",
    "PASS split degrees n in [5,24]: 4n * min chi(1) >= 2^n and prod arms! divides"
    " floor((n-1)/2)! over the + split irreducibles",
]


def test_bounds_suite_defaults_to_its_own_trials(capsys):
    code, out, _ = run(capsys, "verify", "bounds")
    assert (code, out.splitlines()) == (0, BOUNDS_GOLDEN)
    code, out, _ = run(capsys, "verify", "bounds", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["passed"] is True
    assert [f"PASS {item['name']}: {item['detail']}" for item in payload["items"]] == BOUNDS_GOLDEN


def test_bounds_suite_fails_on_a_split_degree_below_the_bound(capsys, monkeypatch):
    from ancover.characters import TABLE_LIMIT, CharacterTable

    for n in range(5, TABLE_LIMIT + 1):
        an_character_table(n)  # built and cached before the degrees are patched
    degrees = CharacterTable.degrees

    def split_degrees_one(table):
        return [1 if chi.is_split() else d for chi, d in zip(table.irreducibles, degrees(table))]

    monkeypatch.setattr(CharacterTable, "degrees", split_degrees_one)
    code, out, _ = run(capsys, "verify", "bounds")
    assert code == 1
    assert out.splitlines()[3].startswith("FAIL split degrees n in [5,24]: ")
    assert sum(line.startswith("FAIL") for line in out.splitlines()) == 1


def test_a_failed_prop24_clause_gives_a_fail_line_not_a_traceback(capsys, monkeypatch):
    import ancover.bounds

    surd_sign = ancover.bounds.surd_sign

    def clauses_fail_at_101(terms):
        # A clause compares u + v*sqrt(n) with 0 in two terms.
        return 1 if len(terms) == 2 and terms[1][1] == 101 else surd_sign(terms)

    monkeypatch.setattr(ancover.bounds, "surd_sign", clauses_fail_at_101)
    failed = "FAIL prop24 odd n in [13,201]: a clause fails at n = 101"
    code, out, _ = run(capsys, "verify", "bounds")
    assert code == 1 and out.splitlines()[0] == failed
    code, out, _ = run(capsys, "verify", "bounds", "--json")
    payload = json.loads(out)
    assert code == 1 and payload["passed"] is False
    assert [item["name"] for item in payload["items"] if not item["passed"]] == [
        "prop24 odd n in [13,201]"
    ]


def test_oversized_repeat_label_exits_2(capsys):
    code, out, err = run(capsys, "cn", "5", "1x1000000000000")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_parse_permutation_rejects_degree_above_limit():
    assert parse_permutation("(1,2)", n=10000).n == 10000
    with pytest.raises(LimitExceeded):
        parse_permutation("(1,2)", n=10001)
    with pytest.raises(LimitExceeded):
        parse_permutation("(1,1000000000)")
    with pytest.raises(LimitExceeded):
        parse_permutation("2 1", n=10001)


def test_huge_ncycles_degree_exits_2(capsys):
    # Without the cap the run below would exhaust memory; fail fast instead.
    with pytest.raises(LimitExceeded):
        parse_permutation("(1,2)", n=10001)
    code, out, err = run(capsys, "ncycles", "1000000001", "(1,2)(3,4)", "9:+", "9:-")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["cn", "9", "--", "--"],
        ["frob", "7", "--", "--", "--", "--"],
        ["ncycles", "7", "--", "--", "7:+", "7:-"],
        ["verify", "gleason", "--n=--"],
    ],
)
def test_separator_as_a_value_exits_2(capsys, argv):
    # argparse turns a value given as "--" after a "--" separator, or as
    # "--n=--", into an empty list
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_huge_verify_range_exits_2(capsys):
    # Without the cap the run below would exhaust memory; fail fast instead.
    with pytest.raises(ValueError):
        _parse_ns("1-20000")
    code, out, err = run(capsys, "verify", "gleason", "--n", "1-1000000000")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def _fuzz_main(capsys, argv):
    """Run main; it must end in 0, 1 or 2, and a returned 2 prints exactly
    one error line.  argparse's own usage errors exit with SystemExit(2)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2
        capsys.readouterr()
        return
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1


# Arbitrary text, plus text over the alphabet of labels, --n lists and
# permutations, which reaches past the first int() more often.
_TEXT = st.one_of(st.text(max_size=20), st.text(alphabet="0123456789,-:x+ ()", max_size=14))
_FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@_FUZZ
@given(_TEXT)
def test_fuzz_verify_n(capsys, text):
    _fuzz_main(capsys, ["verify", "gleason", f"--n={text}"])


@_FUZZ
@given(_TEXT)
@example("--")
def test_fuzz_cn_label(capsys, text):
    _fuzz_main(capsys, ["cn", "9", text])
    _fuzz_main(capsys, ["cn", "9", "--", text])


@_FUZZ
@given(st.lists(_TEXT, min_size=3, max_size=3))
def test_fuzz_frob_labels(capsys, texts):
    _fuzz_main(capsys, ["frob", "7", *texts])


@_FUZZ
@given(_TEXT)
def test_fuzz_ncycles_permutation(capsys, text):
    _fuzz_main(capsys, ["ncycles", "7", text, "7:+", "7:-", "--budget", "2000"])
