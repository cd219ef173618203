"""Command-line surface: outputs, exit codes, CSV and JSON artifacts."""

import contextlib
import copy
import io
import json
import pickle
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlink.braid import MAX_STRANDS, BraidWord, closure_stats, mirror, parse_braid
from qlink.cli import MAX_EXPONENT, MAX_STEPS, CollisionReport, KnotTable, builtin_mini_table, main
from qlink.exactalg import RatFun
from qlink.qnum import MAX_QDEGREE, EvenCF, even_cf, qdelta, qrational
from qlink.xinv import SweepRow, XContext, x_context, x_invariant


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


def test_qrat_at_a_pole_prints_the_value_and_exits_3(capsys):
    # {0}^b = 1 - q^-2 has a negative power of q, so it has a pole at q = 0
    code, out, err = run(capsys, "qrat", "0", "--flavor", "left", "--at", "0")
    assert (code, out, err) == (3, "-q^-2+1\n", "qlink: evaluation at q = 0 of negative-exponent terms\n")


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


def test_error_lines_quote_a_bounded_prefix_of_the_input(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    long = "1" * 5000
    bad_table = tmp_path / "bad.csv"
    bad_table.write_text("y" * 5000 + "\n")  # a row of one field
    long_path = "p" * 5000  # too long a file name for the OS
    sweep_to_long_path = ("sweep", "1", "--q0", "2", "--from", "0", "--to", "1", "--steps", "1", "--out", long_path)
    for argv, expected_code in ((("qrat", long), 2), (("qrat", "x" * 5000), 2), (("qrat", long + "/0"), 2),
                                (("inv", "1", "--mode", "x" * 5000), 2), (("inv", "1", "--mode", "x:" + "y" * 5000), 2),
                                (("inv", "1 " + "y" * 5000), 2), (("table", str(bad_table)), 2),
                                (("table", long_path), 2), (sweep_to_long_path, 4)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (expected_code, ""), argv[:2]
        assert err.count("\n") == 1 and len(err) < 300, err[:300]
        assert " characters)" in err, err
    assert run(capsys, "table", long_path)[2].endswith(": File name too long\n")
    bad_table.write_text("a\n")
    assert run(capsys, "table", str(bad_table))[2] == "qlink: cannot load table: bad knot table row: 'a'\n"
    bad_table.write_text('a,"' + "1 " * 70000 + '"\n')  # a field past the csv module's limit
    assert run(capsys, "table", str(bad_table)) == (2, "", "qlink: cannot load table: field larger than field limit (131072)\n")
    assert run(capsys, *sweep_to_long_path[:-1], "missing/s.csv")[2] == (
        "qlink: cannot write 'missing/s.csv': No such file or directory\n"
    )
    assert run(capsys, "qrat", "x")[2] == "qlink: bad rational 'x': Invalid literal for Fraction: 'x'\n"
    # argparse's own "invalid int value" and "invalid choice" lines, after its usage line
    sweep = ["sweep", "1", "--q0", "2", "--from", "0", "--to", "1", "--out", "s.csv"]
    for argv in ((*sweep, "--steps", long), ("inv", "1", "--strands", long), ("inv", "1", "--strands", "x" * 5000),
                 ("qrat", "1", "--flavor", "x" * 5000), ("x" * 5000, "1"), ("qrat", "1", long),
                 ("qrat", "1", "--bogus" + "x" * 5000, "y" * 3000)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv[:2]
        assert len(err) < 400 and " characters)" in err, err[:400]
    assert run(capsys, "qrat", "1", "--flavor", "up")[2].endswith(
        "error: argument --flavor: invalid choice: 'up' (choose from 'right', 'left')\n"
    )
    # extra tokens of at most 40 characters are repeated as they are
    assert run(capsys, "qrat", "1", "--bogus", "y" * 40)[2].endswith(
        f"error: unrecognized arguments: --bogus {'y' * 40}\n"
    )


def test_sweep_skipped_rows_quote_a_bounded_prefix_of_x(capsys, tmp_path):
    # 1,000 rows of 3,998-4,001 digits, each over the q-deformation cap: each diagnostic line
    # quotes 40 characters of its x and the length, as the error lines do
    out = tmp_path / "x.csv"
    code, stdout, err = run(capsys, "sweep", "1", "--q0", "1", "--from", "0", "--to", "1e4000", "--steps", "1000",
                            "--out", str(out))
    lines = err.splitlines()
    assert (code, stdout, len(lines)) == (0, "", 1000)
    assert len(err) < 150 * 1000, len(err)
    tail = f": q-deformation too large: its q-degree may exceed {MAX_QDEGREE}"
    assert lines[0] == f"sweep: skipped x={'1' + '0' * 39!r}... (3998 characters){tail}"
    assert lines[-1] == f"sweep: skipped x={'1' + '0' * 39!r}... (4001 characters){tail}"
    assert out.read_text().splitlines() == ["x,value,flag", "0,0,"]


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


def test_hecke_term_budget_exits_2_and_is_a_table_entry_error(capsys, tmp_path, monkeypatch):
    # a small budget stands in for MAX_HECKE_TERMS: the 4-strand core 1 -2 1 3 -2 3 passes it;
    # the trefoil, one end block, builds no Hecke term, and the figure-eight, a 3-strand
    # core, is folded on the six-element basis of H_3 with no Hecke element
    homfly_module = sys.modules["qlink.homfly"]
    monkeypatch.setattr(homfly_module, "MAX_HECKE_TERMS", 2)
    over = "braid too large: its Hecke expansion passes 2 terms"
    core = "1 -2 1 3 -2 3"
    sweep = ["sweep", "--q0", "2", "--from", "0", "--to", "1", "--steps", "1", "--out", str(tmp_path / "s.csv")]
    for argv in (("inv", core), ("inv", core, "--mode", "x:2"), (*sweep, core), (*sweep, core, "--q0", "1")):
        assert run(capsys, *argv) == (2, "", f"qlink: {over}\n"), argv
    assert not (tmp_path / "s.csv").exists()
    (tmp_path / "t.csv").write_text(f'a,"{core}"\nb,"1 1 1"\nc,"1 -2 1 -2"\n')
    code, out, err = run(capsys, "table", str(tmp_path / "t.csv"), "--mode", "homfly")
    assert (code, err) == (0, "") and json.loads(out)["errors"] == [{"name": "a", "message": over}]
    assert run(capsys, "inv", "1 1 1")[0] == run(capsys, "inv", "1 -2 1 -2")[0] == 0


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


def test_sweep_at_q0_zero_exits_2_and_writes_nothing(capsys, tmp_path):
    target = tmp_path / "s.csv"
    code, out, err = run(
        capsys, "sweep", "1", "--q0", "0", "--from", "0", "--to", "1", "--steps", "2",
        "--out", str(target),
    )
    assert (code, out, err) == (2, "", "qlink: q0 must be nonzero\n")
    assert not target.exists()


def test_sweep_matches_per_point_invariants(tmp_path, capsys):
    out_path = tmp_path / "tref.csv"
    code, _, _ = run(
        capsys, "sweep", "1 1 1", "--q0", "2", "--from", "0", "--to", "1", "--steps", "3",
        "--out", str(out_path), "--normalized",
    )
    assert code == 0
    assert len(out_path.read_text().strip().splitlines()) == 5


def test_sweep_on_a_deep_braid_runs_no_gcd(tmp_path, capsys, monkeypatch):
    # a 1,000-component closure on 1,001 strands: its rows are evaluated at q0, and
    # the x = 0 row, whose value is 0, is a zero polynomial before any gcd
    import qlink.exactalg.laurent as laurent
    import qlink.exactalg.ratfun as ratfun

    calls = []
    for owner in (laurent, ratfun):
        monkeypatch.setattr(owner, "laurent_gcd", lambda *args, gcd=owner.laurent_gcd: calls.append(args) or gcd(*args))
    out = tmp_path / "deep.csv"
    argv = ["sweep", "1000", "--q0", "2", "--from", "0", "--to", "1", "--steps", "2", "--out", str(out)]
    assert run(capsys, *argv) == (0, "", "")
    assert not calls
    assert [line.split(",")[0] for line in out.read_text().splitlines()] == ["x", "0", "1/2", "1"]


def test_sweep_text_equals_the_symbolic_rows(tmp_path, capsys, monkeypatch):
    # the oracle is the same sweep with every pointwise row refused, and each symbolic
    # row read from specialize_closure(homfly(w), ctx, framing) instead of the fold;
    # x = 2001 is skipped for its q-deformation's size
    import qlink.xinv as xinv
    from qlink.homfly import homfly

    half = MAX_QDEGREE // 2
    out = tmp_path / "s.csv"
    grids = (["--q0", "1", "--from", "-1", "--to", "1", "--steps", "4"],
             ["--q0", "2", "--from", "-1", "--to", "1", "--steps", "4"],
             ["--q0", "-3/2", "--from", str(half), "--to", str(half + 1), "--steps", "1"])
    skipped = set()
    for word in ("1", "1 -2 1 -2", "1 1 2 -3"):
        for grid in grids:
            for normalized in ([], ["--normalized"]):
                argv = ["sweep", word, *grid, *normalized, "--out", str(out)]
                texts = []
                for refuse in (False, True):
                    with monkeypatch.context() as m:
                        if refuse:
                            m.setattr(xinv, "_closure_at", lambda pieces, writhe, r, s, framing=0: lambda *args: None)
                            m.setattr(xinv, "_x_value", lambda w, ctx, framing=0, pieces=None:
                                      xinv.specialize_closure(homfly(w), ctx, framing))
                        texts.append((run(capsys, *argv), out.read_bytes()))
                assert texts[0] == texts[1], argv
                skipped.add(texts[0][0][2])
    assert skipped == {"", f"sweep: skipped x={half + 1}: q-deformation too large: its q-degree may exceed {MAX_QDEGREE}\n"}


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
    # in homfly mode each mirror's value is derived from its braid's HOMFLY-PT value,
    # and in x: and flat: modes each mirror is traced as its own word, with no
    # HOMFLY-PT value built; the reference traces the mirror braid itself, specializes
    # its HOMFLY-PT value and normalizes by its writhe
    import qlink.cli as cli
    from qlink.braid import mirror, parse_braid
    from qlink.exactalg import RatFun2, format_ratfun, format_ratfun2
    from qlink.homfly import homfly
    from qlink.xinv import flat_context, specialize_closure, x_context

    entries = {"3_1": "1 1 1", "4_1": "1 -2 1 -2", "hopf": "1 1", "kinked": "1 2 -1 2 2", "split": "1 1 1 3"}
    path = tmp_path / "knots.csv"
    path.write_text("".join(f'{n},"{b}"\n' for n, b in entries.items()))
    calls = []
    monkeypatch.setattr(cli, "homfly", lambda w: calls.append(w) or homfly(w))
    for mode in ("homfly", "x:2", "x:1/2", "flat:2", "flat:-3/2"):
        calls.clear()
        code, out, _ = run(capsys, "table", str(path), "--mode", mode, "--with-mirrors")
        kind, x = cli._parse_mode(mode)
        assert code == 0 and len(calls) == (len(entries) if kind == "homfly" else 0)
        by_value = {}
        for name, text in entries.items():
            for n, w in ((name, parse_braid(text)), (name + "!", mirror(parse_braid(text)))):
                if kind == "homfly":
                    value = format_ratfun2(homfly(w) * RatFun2.monomial(1, -1, 1) ** w.writhe)
                else:
                    ctx = x_context(x) if kind == "x" else flat_context(x)
                    value = format_ratfun(specialize_closure(homfly(w), ctx, w.writhe).nu_free_part())
                by_value.setdefault(value, []).append(n)
        label = mode + (" normalized" if kind != "homfly" else "")
        groups = tuple(sorted(tuple(sorted(g)) for g in by_value.values()))
        assert out == CollisionReport(label, groups, ()).to_json() + "\n"


def test_x_modes_build_no_homfly_value_and_no_two_variable_polynomial(capsys, monkeypatch):
    # an x-value folds the Markov pieces over Z[q^+-1]: `inv` and `table` in x: and flat:
    # modes, and normalized_invariant, build no IntLaurent2 or RatFun2, and neither
    # specialize a HOMFLY-PT value (`specialize_a`) nor build one (`_closure_value`)
    import qlink.exactalg.laurent as laurent
    import qlink.exactalg.nu as nu
    import qlink.exactalg.ratfun as ratfun
    from qlink.xinv import normalized_invariant

    homfly_module = sys.modules["qlink.homfly"]  # `qlink.homfly` as an attribute is the function
    calls = []
    for owner, name in ((nu, "specialize_a"), (nu, "_specialize_poly"), (homfly_module, "_closure_value")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, name=name, fn=fn: calls.append(name) or fn(*args))
    # every polynomial is built by _Laurent.__init__ or _new, and every fraction by
    # _Fraction.__init__ or _make: count the class of each
    for owner, name in ((laurent._Laurent, "__init__"), (ratfun._Fraction, "__init__")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda self, *args, fn=fn: calls.append(type(self).__name__) or fn(self, *args))
    for owner, name in ((laurent._Laurent, "_new"), (ratfun._Fraction, "_make")):
        fn = getattr(owner, name).__func__
        monkeypatch.setattr(owner, name, classmethod(lambda cls, *args, fn=fn: calls.append(cls.__name__) or fn(cls, *args)))
    for argv in (["inv", "1 -2 1 -2 3 3 5 5 5", "--strands", "7", "--mode", "x:2"],
                 ["inv", "1 1 1", "--mode", "flat:5/2", "--normalized"],
                 ["inv", "1 2 -1 2 2", "--mode", "flat:5/2", "--mirror"],
                 ["table", "--mode", "x:2", "--with-mirrors"]):
        calls.clear()
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out, argv
        assert "IntLaurent" in calls and "RatFun" in calls, argv
        assert not {"IntLaurent2", "RatFun2", "specialize_a", "_specialize_poly", "_closure_value"} & set(calls), argv
    calls.clear()
    normalized_invariant(parse_braid("1 -2 1 -2 3 3"), x_context(Fraction(-7, 4)))
    assert "RatFun" in calls and not {"IntLaurent2", "RatFun2", "specialize_a", "_specialize_poly", "_closure_value"} & set(calls)
    run(capsys, "inv", "1 1 1", "--mode", "homfly")
    assert {"IntLaurent2", "RatFun2", "_closure_value"} <= set(calls)  # the counters work


def test_table_builds_one_context_for_all_entries(capsys, monkeypatch):
    # one delta_x per command; a context over the q-degree cap is each entry's
    # and each mirror's own error
    import qlink.cli as cli

    calls = []
    for name in ("x_context", "flat_context"):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda x, fn=fn: calls.append(x) or fn(x))
    half = MAX_QDEGREE // 2
    for mode, built in (("homfly", 0), ("x:2", 1), ("flat:-3/2", 1), (f"x:{half + 1}", 1), (f"flat:1/{half + 1}", 1)):
        calls.clear()
        code, out, _ = run(capsys, "table", "--mode", mode, "--with-mirrors")
        assert code == 0 and len(calls) == built, mode
        report = CollisionReport.from_json(out)
        if mode.endswith(str(half + 1)):
            over = f"q-deformation too large: its q-degree may exceed {MAX_QDEGREE}"
            names = [n + m for n in ("3_1", "4_1", "5_1") for m in ("", "!")]
            assert report.groups == () and report.errors == tuple((n, over) for n in names), mode
        else:
            assert not report.errors and sum(map(len, report.groups)) == 6, mode


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


@st.composite
def cli_case(draw) -> tuple[list[str], list[tuple[str, str]] | None, int | None]:
    """`cli_argv`, and a Hecke-term budget to run it under (None: MAX_HECKE_TERMS)."""
    return *draw(cli_argv()), draw(st.sampled_from([None, None, 1, 4, 30]))


@settings(max_examples=150, deadline=None)
@given(cli_case())
@example((["qrat", "--at", "1e3", "1e3"], None, None))
@example((["sweep", "--q0", "1e3", "--from", "999", "--to", "1e3", "--steps", "1", "--out", "{dir}/s.csv", "1"], None, None))
@example((["qrat", "1/0"], None, None))
@example((["qrat", "1", LONG], None, None))
@example((["qrat", "1", "--bogus" + "x" * 5000, "y" * 3000], None, None))
@example((["inv", str(MAX_STRANDS - 1)], None, None))
@example((["inv", "--mode", "x:2", str(MAX_STRANDS)], None, None))
@example((["sweep", "--q0", "2", "--from", "0", "--to", "1", "--steps", "1", "--out", "{dir}/s.csv",
           "--strands", str(10**9), "1"], None, None))
@example((["qrat", "1e999999999"], None, None))
@example((["inv", "--mode", "x:2", "1 -2 1 -2"], None, 4))
@example((["sweep", "--q0", "2", "--from", "0", "--to", "1", "--steps", "1", "--out", "{dir}/s.csv", "1 -2 1 -2"], None, 1))
@example((["table", "--with-mirrors", "{dir}/t.csv"], [("a", "1 -2 1 -2"), ("b", "1 1 1")], 4))
@example((["table", "{dir}/t.csv"], [("y" * 5000 + "\n#", "1")], None))  # a 5,000-character row of one field
@example((["table", "{dir}/t.csv"], [("a", "1 " * 70000)], None))  # a field past the csv module's limit
@example((["table", "{dir}/" + "p" * 5000], None, None))
@example((["sweep", "--q0", "2", "--from", "0", "--to", "1", "--steps", "1", "--out", "{dir}/" + "p" * 5000, "1"], None, None))
@example((["sweep", "--q0", "-2", "--from", f"{OVER - 1}", "--to", f"{OVER}", "--steps", "1", "--out", "{dir}/s.csv", "-1"],
          None, None))
def test_cli_exits_with_a_documented_code_and_no_traceback(case):
    argv, rows, budget = case
    homfly_module = sys.modules["qlink.homfly"]
    out, err, full = io.StringIO(), io.StringIO(), homfly_module.MAX_HECKE_TERMS
    with tempfile.TemporaryDirectory() as tmp:
        if rows is not None:
            with open(f"{tmp}/t.csv", "w") as fh:
                fh.writelines(f'{name},"{braid}"\n' for name, braid in rows)
        homfly_module.MAX_HECKE_TERMS = budget or full
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([a.replace("{dir}", tmp) for a in argv])
        finally:
            homfly_module.MAX_HECKE_TERMS = full
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert all(len(line) < 300 for line in err.getvalue().splitlines()), err.getvalue()[:300]


# ---------------------------------------------------------------------------
# benchmark hooks
# ---------------------------------------------------------------------------


def test_benchmark_tracer_installs_and_snapshots():
    # perfbench/tracer.py wraps qlink functions by name and reads
    # qlink.homfly._DEFAULT_PARAMS: its per-layer mode must keep working
    root = Path(__file__).resolve().parents[1]
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import qlink.cli\n"
        "from tracer import Tracer\n"
        "t = Tracer(); t.install(); t.snapshot()\n"
    )
    proc = subprocess.run([sys.executable, "-B", "-c", script, str(root / "src"), str(root / "perfbench")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# start-up and records
# ---------------------------------------------------------------------------

# the modules perfbench/tracer.py reads from sys.modules once qlink is imported
TRACED_MODULES = {"qlink.exactalg.laurent", "qlink.exactalg.ratfun", "qlink.exactalg.nu",
                  "qlink.homfly", "qlink.qnum", "qlink.xinv"}


def test_startup_loads_the_traced_modules_and_no_library_it_does_not_use():
    # every qlink command is one cold process, so importing qlink must not pay
    # for dataclasses (which loads inspect), json, csv or typing; under -S no
    # site hook loads any of them first
    root = Path(__file__).resolve().parents[1]
    script = "import sys; sys.path[:0] = [sys.argv[1]]; __import__(sys.argv[2]); print(*sys.modules)"
    for module in ("qlink.cli", "qlink.homfly"):
        proc = subprocess.run([sys.executable, "-S", "-B", "-c", script, str(root / "src"), module],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert not loaded & {"dataclasses", "inspect", "json", "csv", "typing"}, module
        assert TRACED_MODULES <= loaded, module


def test_benchmark_tracer_resolves_every_layer_and_counts_the_trace():
    # the benchmark's traced mode wraps each name in `perfbench/tracer.py`'s
    # LAYERS; one that no longer resolves makes it raise before it measures.
    # The figure-eight word admits no Markov move, and its 3-strand core is
    # folded on the six-element basis of H_3, with no Hecke element; the core
    # 1 -2 1 3 -2 3 on 4 strands is expanded (6 letters, then 2 steps of the
    # coset chain); the trefoil on two strands is one end block, traced with no
    # Hecke term at all
    root = Path(__file__).resolve().parents[1]
    script = (
        "import sys; sys.path[:0] = sys.argv[1:3]; import qlink.cli, tracer; t = tracer.Tracer(); t.install(); "
        "from qlink.braid import parse_braid; from qlink.homfly import homfly; homfly(parse_braid(sys.argv[3])); "
        "import json; print(json.dumps(t.snapshot()['calls']))"
    )
    counts = {}
    for word in ("1 -2 1 -2", "1 -2 1 3 -2 3", "1 1 1"):
        proc = subprocess.run([sys.executable, "-B", "-c", script, str(root / "src"), str(root / "perfbench"), word],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        counts[word] = json.loads(proc.stdout)
    assert counts == {"1 -2 1 -2": {"homfly.homfly": 1},
                      "1 -2 1 3 -2 3": {"homfly.homfly": 1, "homfly.trace": 1, "homfly.hecke_mul": 8},
                      "1 1 1": {"homfly.homfly": 1}}


def test_records_validate_compare_and_refuse_assignment():
    for letters, strands, message in (((0,), 2, "nonzero"), ((2,), 2, "letter 2 out of range for 2 strands"),
                                      ((-3,), 3, "letter -3 out of range"), ((), 0, "at least one strand")):
        with pytest.raises(ValueError, match=message):
            BraidWord(letters, strands)
    with pytest.raises(ValueError, match="even length"):
        EvenCF((1,))
    with pytest.raises(ValueError, match="flavor must be"):
        XContext(Fraction(2), "left", qdelta(2))
    with pytest.raises(ValueError, match="delta = 0"):
        XContext(Fraction(2), "right", RatFun.zero())
    w = parse_braid("1 -2 1 -2")
    with pytest.raises(ValueError, match="duplicate knot names"):
        KnotTable((("a", w), ("b", w), ("a", mirror(w))), "t.csv")

    assert mirror(mirror(w)) == w and hash(mirror(mirror(w))) == hash(w)
    assert mirror(w) != w and w != BraidWord(w.letters, 4) and w != (w.letters, w.strands)
    assert len({w, mirror(w), mirror(mirror(w)), parse_braid("1, -2, 1, -2")}) == 2
    assert repr(w) == "BraidWord(letters=(1, -2, 1, -2), strands=3)"
    assert repr(even_cf(Fraction(5, 2))) == "EvenCF(terms=(2, 2))"

    ctx = x_context(2)
    records = [(w, "strands"), (closure_stats(w), "components"), (builtin_mini_table(), "entries"),
               (CollisionReport("x:2", (("3_1",),), (("4_1", "pole"),)), "groups"), (even_cf(Fraction(5, 2)), "terms"),
               (ctx, "delta"), (x_invariant(w, ctx), "value"), (SweepRow(Fraction(1, 2), Fraction(3), ""), "flag")]
    for record, field in records:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)
        assert copy.copy(record) == record and pickle.loads(pickle.dumps(record)) == record
        assert hash(copy.copy(record)) == hash(record)
