"""Command-line surface: outputs, exit codes, CSV and JSON artifacts."""

import contextlib
import io
import sys
import tempfile
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlink.braid import MAX_STRANDS
from qlink.cli import MAX_EXPONENT, MAX_STEPS, CollisionReport, builtin_mini_table, main
from qlink.qnum import MAX_QDEGREE, qrational


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# qrat
# ---------------------------------------------------------------------------


def test_qrat_basic(capsys):
    code, out, _ = run(capsys, "qrat", "5/2")
    assert code == 0
    assert out.strip() == "(1+2*q^2+q^4+q^6)/(1+q^2)"


def test_qrat_left(capsys):
    code, out, _ = run(capsys, "qrat", "2", "--flavor", "left")
    assert code == 0
    assert out.strip() == "1+q^4"


def test_qrat_at(capsys):
    code, out, _ = run(capsys, "qrat", "1/2", "--at", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["(q^2)/(1+q^2)", "4/5"]


def test_qrat_at_prints_a_value_of_any_length(capsys):
    # {1000} at q = 1000 is sum_(k < 1000) 10^(6k), 5,995 digits: more than the
    # interpreter converts to text by default, which still holds for parsing
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "qrat", "1000", "--at", "1000")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "1" + "000001" * 999
    assert sys.get_int_max_str_digits() == limit
    code, out, err = run(capsys, "qrat", "1" * 5000)
    assert code == 2 and not out
    assert err.startswith("qlink: bad rational") and err.count("\n") == 1


def test_qrat_bad_rational(capsys):
    code, _, err = run(capsys, "qrat", "1/0")
    assert code == 2
    assert "bad rational" in err


def test_arguments_starting_with_a_dash_and_a_digit_are_values(capsys, tmp_path):
    for argv in (("qrat", "-1/2"), ("qrat", "--", "-1/2"), ("qrat", "-.5"), ("qrat", "-5e-1")):
        assert run(capsys, *argv) == (0, "(-q^-2)/(1+q^2)\n", ""), argv
    assert run(capsys, "qrat", "1/2", "--at", "-1/2") == (0, "(q^2)/(1+q^2)\n1/5\n", "")
    expected = run(capsys, "inv", "-1 2")
    assert expected[0] == 0 and run(capsys, "inv", "-1,2") == expected == run(capsys, "inv", "--", "-1,2")
    out_path = tmp_path / "s.csv"
    code, _, err = run(capsys, "sweep", "1", "--q0", "-2", "--from", "-1/2", "--to", "1", "--steps", "2",
                       "--out", str(out_path))
    assert (code, err) == (0, "")
    assert [line.split(",")[0] for line in out_path.read_text().splitlines()] == ["x", "-1/2", "1/4", "1"]
    # options, `--` and unknown options are read as before
    code, out, _ = run(capsys, "qrat", "-h")
    assert code == 0 and out.startswith("usage: qlink qrat")
    code, out, err = run(capsys, "qrat", "-x")
    assert code == 2 and not out and "the following arguments are required: x" in err


def test_error_lines_quote_a_bounded_prefix_of_the_input(capsys):
    long = "1" * 5000
    for argv in (("qrat", long), ("qrat", "x" * 5000), ("qrat", long + "/0"), ("inv", "1", "--mode", "x" * 5000),
                 ("inv", "1", "--mode", "x:" + "y" * 5000), ("inv", "1 " + "y" * 5000)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv[:2]
        assert err.count("\n") == 1 and len(err) < 300, err[:300]
        assert " characters)" in err, err
    assert run(capsys, "qrat", "x")[2] == "qlink: bad rational 'x': Invalid literal for Fraction: 'x'\n"
    # argparse's own "invalid int value" and "invalid choice" lines, after its usage line
    sweep = ["sweep", "1", "--q0", "2", "--from", "0", "--to", "1", "--out", "s.csv"]
    for argv in ((*sweep, "--steps", long), ("inv", "1", "--strands", long), ("inv", "1", "--strands", "x" * 5000),
                 ("qrat", "1", "--flavor", "x" * 5000), ("x" * 5000, "1")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv[:2]
        assert len(err) < 400 and " characters)" in err, err[:400]
    assert run(capsys, "qrat", "1", "--flavor", "up")[2].endswith(
        "error: argument --flavor: invalid choice: 'up' (choose from 'right', 'left')\n"
    )


def test_q_deformations_and_sweeps_over_their_caps_exit_2(capsys, tmp_path):
    half = MAX_QDEGREE // 2  # {n} and {1/n} have q-degree bound 2n
    assert run(capsys, "qrat", str(half))[0] == 0
    over = f"qlink: q-deformation too large: its q-degree may exceed {MAX_QDEGREE}\n"
    for argv in (("qrat", str(half + 1)), ("qrat", f"1/{half + 1}", "--flavor", "left"),
                 ("inv", "1", "--mode", f"x:{half + 1}"), ("inv", "1 1 1", "--mode", f"flat:-1/{half + 1}")):
        assert run(capsys, *argv) == (2, "", over), argv
    sweep = ["sweep", "1", "--q0", "2", "--from", "0", "--to", "1", "--out", str(tmp_path / "s.csv")]
    assert run(capsys, *sweep, "--steps", str(MAX_STEPS + 1)) == (2, "", f"qlink: steps must be <= {MAX_STEPS}\n")
    assert not (tmp_path / "s.csv").exists()
    # a sweep point over the cap is skipped like a pole
    code, _, err = run(capsys, "sweep", "1", "--q0", "2", "--from", str(half), "--to", str(half + 1),
                       "--steps", "1", "--out", str(tmp_path / "s.csv"))
    assert code == 0 and err == f"sweep: skipped x={half + 1}: " + over[len("qlink: "):]
    assert (tmp_path / "s.csv").read_text().splitlines()[1:] == [f"{half},{qrational(half).evaluate(2)},"]


def test_strand_and_exponent_caps_exit_2_before_any_work(capsys, tmp_path, monkeypatch):
    import qlink.cli as cli

    monkeypatch.setattr(cli, "homfly", None)  # no trace may start
    over = f"qlink: bad braid: more than {MAX_STRANDS} strands\n"
    sweep = ["sweep", "--q0", "2", "--from", "0", "--to", "1", "--steps", "1", "--out", str(tmp_path / "s.csv")]
    for argv in (("inv", str(MAX_STRANDS)), ("inv", "1", "--strands", str(MAX_STRANDS + 1)),
                 ("inv", "1", "--strands", str(10**9)), (*sweep, "1", "--strands", str(MAX_STRANDS + 1)),
                 (*sweep, str(MAX_STRANDS + 1))):
        assert run(capsys, *argv) == (2, "", over), argv
    (tmp_path / "t.csv").write_text(f'a,"1 {MAX_STRANDS}"\n')
    table_over = f"qlink: cannot load table: more than {MAX_STRANDS} strands\n"
    assert run(capsys, "table", str(tmp_path / "t.csv")) == (2, "", table_over)
    for x in (f"1e{MAX_EXPONENT + 1}", "1e999999999", f"-2.5E-{MAX_EXPONENT + 1}", f"1e0_{MAX_EXPONENT + 1}"):
        bad = f"qlink: bad rational {x!r}: exponent magnitude over {MAX_EXPONENT}\n"
        assert run(capsys, "qrat", "--", x) == (2, "", bad), x
        assert run(capsys, "inv", "1", "--mode", f"x:{x}") == (2, "", bad), x


# ---------------------------------------------------------------------------
# inv
# ---------------------------------------------------------------------------


def test_inv_homfly_stabilized_unknot(capsys):
    code, out, _ = run(capsys, "inv", "1", "--mode", "homfly")
    assert code == 0
    assert out.strip() == "(-1+a^2)/(-1+q^2)"


def test_inv_x_mode_outputs_nu_value(capsys):
    code, out, _ = run(capsys, "inv", "1", "--mode", "x:2")
    assert code == 0
    assert out.strip() == "(1+q^2) + (0)*v"


SPECIALIZED_TEXTS = [
    (
        ("1 1 1", "--mode", "x:2/3"),
        "((q^-2+q^4+q^6+2*q^8+q^10)/(1+q^2+2*q^4+2*q^6+2*q^8+q^10)) + (0)*v",
    ),
    (
        ("1 1 1", "--mode", "x:2/3", "--normalized"),
        "(1+q^6+q^8+2*q^10+q^12)/(1+2*q^4+2*q^6+q^8+2*q^10+q^12)",
    ),
    (
        ("1 1 1", "--mode", "flat:5/2", "--normalized", "--mirror"),
        "(q^2+q^4+3*q^6+3*q^8+4*q^10+5*q^12+3*q^14+2*q^16+2*q^18-2*q^22-q^26-q^28)"
        "/(1+3*q^4+3*q^8+q^12)",
    ),
    (
        ("1 -2 1 -2", "--mode", "flat:5/2"),
        "(0) + ((q^-4+3+q^2+3*q^4+2*q^6+q^8+q^10+2*q^12+q^16+3*q^18+q^22+q^24)"
        "/(1+2*q^4+q^6+q^8+2*q^10+q^14))*v",
    ),
    (
        ("1 -2 1 -2", "--mode", "x:-3/4", "--normalized"),
        "(-q^-2-3-5*q^2-7*q^4-9*q^6-10*q^8-7*q^10-5*q^12-q^14-q^16+q^18)"
        "/(1+3*q^2+6*q^4+9*q^6+11*q^8+11*q^10+9*q^12+7*q^14+4*q^16+2*q^18+q^20)",
    ),
]


def test_inv_specialized_texts_are_pinned(capsys):
    # the exact canonical text of specialized values, in both contexts
    for argv, text in SPECIALIZED_TEXTS:
        code, out, err = run(capsys, "inv", *argv)
        assert (code, out, err) == (0, text + "\n", ""), argv


def test_inv_trefoil_mirror_pair_differ(capsys):
    code1, out1, _ = run(capsys, "inv", "1 1 1", "--mode", "x:2/3")
    code2, out2, _ = run(capsys, "inv", "1 1 1", "--mode", "x:2/3", "--mirror")
    assert code1 == code2 == 0
    assert out1 != out2


def test_inv_bad_braid(capsys):
    code, _, err = run(capsys, "inv", "0", "--mode", "homfly")
    assert code == 2
    assert "bad braid" in err


def test_inv_bad_mode(capsys):
    code, _, err = run(capsys, "inv", "1", "--mode", "y:2")
    assert code == 2


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_csv(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, err = run(
        capsys, "sweep", "1", "--q0", "2", "--from", "0", "--to", "1", "--steps", "4",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "x,value,flag"
    rows = {line.split(",")[0]: line.split(",")[1] for line in lines[1:]}
    assert rows["1/2"] == "4/5"
    assert rows["1"] == "1"
    assert rows["1/4"] == str(qrational(Fraction(1, 4)).evaluate(2))
    assert len(lines) == 6  # header + 5 sample points


def test_sweep_writes_values_of_any_length(tmp_path, capsys):
    out_path = tmp_path / "big.csv"
    code, _, err = run(
        capsys, "sweep", "1", "--q0", "1000", "--from", "999", "--to", "1000", "--steps", "1",
        "--out", str(out_path),
    )
    assert (code, err) == (0, "")
    lines = out_path.read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == ["x", "999", "1000"]
    value = lines[2].split(",")[1]
    assert len(value) > 4300 and value.isdigit()
    code, _, err = run(
        capsys, "sweep", "1", "--q0", "1" * 5000, "--from", "0", "--to", "1", "--steps", "1",
        "--out", str(out_path),
    )
    assert code == 2 and err.startswith("qlink: bad rational") and err.count("\n") == 1


def test_sweep_zero_steps(capsys, tmp_path):
    code, _, err = run(
        capsys, "sweep", "1", "--q0", "2", "--from", "0", "--to", "1", "--steps", "0",
        "--out", str(tmp_path / "s.csv"),
    )
    assert code == 2


def test_sweep_unwritable(capsys, tmp_path):
    target = tmp_path / "nope" / "deep" / "s.csv"
    code, _, err = run(
        capsys, "sweep", "1", "--q0", "2", "--from", "0", "--to", "1", "--steps", "2",
        "--out", str(target),
    )
    assert code == 4


def test_sweep_matches_per_point_invariants(tmp_path, capsys):
    out_path = tmp_path / "tref.csv"
    code, _, _ = run(
        capsys, "sweep", "1 1 1", "--q0", "2", "--from", "0", "--to", "1", "--steps", "3",
        "--out", str(out_path), "--normalized",
    )
    assert code == 0
    assert len(out_path.read_text().strip().splitlines()) == 5


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_flat2_separates_trefoil_mirror(capsys):
    code, out, _ = run(capsys, "table", "--mode", "flat:2", "--with-mirrors")
    assert code == 0
    report = CollisionReport.from_json(out)
    assert not report.errors
    groups = {frozenset(g) for g in report.groups}
    # chiral knots split from their mirrors; the amphichiral 4_1 cannot
    assert frozenset({"3_1"}) in groups and frozenset({"3_1!"}) in groups
    assert frozenset({"5_1"}) in groups and frozenset({"5_1!"}) in groups
    assert frozenset({"4_1", "4_1!"}) in groups
    names = {n for g in report.groups for n in g}
    assert names == {"3_1", "4_1", "5_1", "3_1!", "4_1!", "5_1!"}


def test_table_x2_groups_figure_eight_with_mirror(capsys):
    code, out, _ = run(capsys, "table", "--mode", "x:2", "--with-mirrors")
    assert code == 0
    report = CollisionReport.from_json(out)
    groups = {frozenset(g) for g in report.groups}
    assert frozenset({"4_1", "4_1!"}) in groups


def test_table_mirrors_match_traced_mirrors(tmp_path, capsys, monkeypatch):
    # each mirror's value is derived from its braid's HOMFLY-PT value; the
    # reference traces the mirror braid itself and normalizes by its writhe
    import qlink.cli as cli
    from qlink.braid import mirror, parse_braid
    from qlink.homfly import homfly

    entries = {"3_1": "1 1 1", "4_1": "1 -2 1 -2", "hopf": "1 1", "kinked": "1 2 -1 2 2", "split": "1 1 1 3"}
    path = tmp_path / "knots.csv"
    path.write_text("".join(f'{n},"{b}"\n' for n, b in entries.items()))
    calls = []
    monkeypatch.setattr(cli, "homfly", lambda w: calls.append(w) or homfly(w))
    for mode in ("homfly", "x:2", "x:1/2", "flat:2", "flat:-3/2"):
        calls.clear()
        code, out, _ = run(capsys, "table", str(path), "--mode", mode, "--with-mirrors")
        assert code == 0 and len(calls) == len(entries)
        kind, x = cli._parse_mode(mode)
        by_value = {}
        for name, text in entries.items():
            for n, w in ((name, parse_braid(text)), (name + "!", mirror(parse_braid(text)))):
                by_value.setdefault(cli._invariant_text(homfly(w), w.writhe, kind, x, True), []).append(n)
        label = mode + (" normalized" if kind != "homfly" else "")
        groups = tuple(sorted(tuple(sorted(g)) for g in by_value.values()))
        assert out == CollisionReport(label, groups, ()).to_json() + "\n"


def test_table_collisions_filter(capsys):
    code, out, _ = run(capsys, "table", "--mode", "x:2", "--with-mirrors", "--collisions")
    report = CollisionReport.from_json(out)
    assert all(len(g) > 1 for g in report.groups)


def test_table_json_round_trip(capsys):
    code, out, _ = run(capsys, "table", "--mode", "flat:2")
    report = CollisionReport.from_json(out)
    assert CollisionReport.from_json(report.to_json()) == report


def test_table_deterministic(capsys):
    _, out1, _ = run(capsys, "table", "--mode", "flat:2", "--with-mirrors")
    _, out2, _ = run(capsys, "table", "--mode", "flat:2", "--with-mirrors")
    assert out1 == out2


def test_table_from_file(tmp_path, capsys):
    path = tmp_path / "knots.csv"
    path.write_text('# comment line\n3_1,"1 1 1"\nunknot,"1"\n')
    code, out, _ = run(capsys, "table", str(path), "--mode", "x:2")
    assert code == 0
    report = CollisionReport.from_json(out)
    assert {n for g in report.groups for n in g} == {"3_1", "unknot"}


def test_table_duplicate_names_rejected(tmp_path, capsys):
    path = tmp_path / "dup.csv"
    path.write_text('a,"1"\na,"1 1 1"\n')
    code, _, err = run(capsys, "table", str(path), "--mode", "x:2")
    assert code == 2


def test_load_builtin_mini_table():
    table = builtin_mini_table()
    assert [n for n, _ in table.entries] == ["3_1", "4_1", "5_1"]


# ---------------------------------------------------------------------------
# argv fuzz
# ---------------------------------------------------------------------------

OVER = MAX_QDEGREE // 2 + 1  # {OVER}, {1/OVER} and {OVER - 1/2} are just over MAX_QDEGREE
RATIONALS = st.one_of(
    st.integers(-30, 30).map(str),
    st.builds("{}/{}".format, st.integers(-30, 30), st.integers(0, 6)),
    st.sampled_from(["1e3", "-2e1", "5e-1", "-.5", "1.5e2", "1E2", "1/0", "1e", "x", ""]),
    st.sampled_from([f"{OVER}", f"-{OVER}", f"1/{OVER}", f"-1/{OVER}", f"{OVER}e0", f"{2 * OVER - 1}/2",
                     f"1e{MAX_EXPONENT + 1}", "1e999999999", f"-1E-{MAX_EXPONENT + 1}"]),
)
LONG = "9" * 5000  # argparse would repeat a bad value whole
MODES = st.one_of(
    st.just("homfly"),
    st.builds("{}:{}".format, st.sampled_from(["x", "flat", "y"]), RATIONALS),
)


@st.composite
def braid_args(draw) -> list[str]:
    """A braid word on at most 6 strands, with its strand count or without,
    or a malformed one, or one over MAX_STRANDS; ends in the positional braid,
    after `--` or not."""
    n = draw(st.integers(1, 6))
    letters = draw(st.lists(st.integers(1 - n, n - 1).filter(bool), max_size=8)) if n > 1 else []
    malformed = st.sampled_from(["0", "1 x", "3", "", str(MAX_STRANDS)])
    text = draw(st.one_of(st.just(" ".join(map(str, letters))), malformed))
    strands = draw(st.sampled_from([[], ["--strands", str(n)], ["--strands", str(10**9)], ["--strands", LONG]]))
    flags = draw(st.lists(st.sampled_from(["--normalized", "--mirror"]), unique=True))
    return strands + flags + draw(st.sampled_from([[], ["--"]])) + [text]


@st.composite
def cli_argv(draw) -> tuple[list[str], list[tuple[str, str]] | None]:
    """argv for one subcommand, with `{dir}` standing for a temporary directory,
    and the rows of the knot table that `table` reads from `{dir}/t.csv`."""
    command = draw(st.sampled_from(["qrat", "inv", "sweep", "table"]))
    if command == "qrat":
        flavors = [[], ["--flavor", "left"], ["--flavor", "right"], ["--flavor", LONG]]
        argv = ["qrat"] + draw(st.sampled_from(flavors))
        if draw(st.booleans()):
            argv += ["--at", draw(RATIONALS)]
        return argv + [draw(RATIONALS)], None
    if command == "inv":
        if draw(st.integers(0, 9)) == 9:  # one letter on MAX_STRANDS - 1 or MAX_STRANDS strands, in homfly mode
            return ["inv", str(draw(st.sampled_from([MAX_STRANDS - 2, MAX_STRANDS - 1])))], None
        return ["inv", "--mode", draw(MODES)] + draw(braid_args()), None
    if command == "sweep":
        out = draw(st.sampled_from(["{dir}/s.csv", "{dir}/missing/s.csv"]))
        opts = [token for name in ("--q0", "--from", "--to") for token in (name, draw(RATIONALS))]
        steps = str(draw(st.one_of(st.integers(-1, 4), st.sampled_from([MAX_STEPS + 1, MAX_STEPS + 2, LONG]))))
        return ["sweep", *opts, "--steps", steps, "--out", out] + draw(braid_args()), None
    argv = ["table", "--mode", draw(MODES)]
    argv += draw(st.lists(st.sampled_from(["--with-mirrors", "--collisions"]), unique=True))
    rows = draw(st.one_of(st.none(), st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from(["1 1 1", "1 -2 1 -2", "-1", "2 x"])),
        max_size=3,
    )))
    return argv + (["{dir}/t.csv"] if rows is not None else []), rows


@settings(max_examples=150, deadline=None)
@given(cli_argv())
@example((["qrat", "--at", "1e3", "1e3"], None))
@example((["sweep", "--q0", "1e3", "--from", "999", "--to", "1e3", "--steps", "1", "--out", "{dir}/s.csv", "1"], None))
@example((["qrat", "1/0"], None))
@example((["inv", str(MAX_STRANDS - 1)], None))
@example((["inv", "--mode", "x:2", str(MAX_STRANDS)], None))
@example((["sweep", "--q0", "2", "--from", "0", "--to", "1", "--steps", "1", "--out", "{dir}/s.csv",
           "--strands", str(10**9), "1"], None))
@example((["qrat", "1e999999999"], None))
@example((["sweep", "--q0", "-2", "--from", f"{OVER - 1}", "--to", f"{OVER}", "--steps", "1", "--out", "{dir}/s.csv", "-1"],
          None))
def test_cli_exits_with_a_documented_code_and_no_traceback(case):
    argv, rows = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if rows is not None:
            with open(f"{tmp}/t.csv", "w") as fh:
                fh.writelines(f'{name},"{braid}"\n' for name, braid in rows)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.replace("{dir}", tmp) for a in argv])
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
