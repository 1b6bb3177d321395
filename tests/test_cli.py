"""CLI behaviour: outputs, exit codes, determinism, golden regressions."""

import hashlib
import os
from fractions import Fraction

import pytest

from sympstairs.classes import certification_trace, gen_E, gen_F
from sympstairs.cli import build_parser, main
from sympstairs.render import emit_svg, emit_table_csv

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_closed(capsys):
    code, out, _ = run(capsys, "eval", "--b", "2", "--a", "8", "--method", "closed")
    assert code == 0
    assert out.split("\t")[0] == "17/12"


def test_eval_nonsqueezing(capsys):
    code, out, _ = run(capsys, "eval", "--b", "2", "--a", "4")
    assert code == 0
    assert out.split("\t")[0] == "1"


def test_eval_ech_never_exceeds_closed(capsys):
    code, out, _ = run(capsys, "eval", "--b", "2", "--a", "8", "--method", "ech", "--n", "2000")
    assert code == 0
    assert Fraction(out.split("\t")[0]) <= Fraction(17, 12)


def test_eval_bisect_interval(capsys):
    code, out, _ = run(capsys, "eval", "--b", "2", "--a", "8", "--method", "bisect", "--tol", "1/1000")
    assert code == 0
    interval = out.split("\t")[0]
    lo, hi = interval.strip("[]").split(",")
    assert Fraction(lo) < Fraction(17, 12) <= Fraction(hi)


def test_eval_decide(capsys):
    code, out, _ = run(capsys, "eval", "--b", "2", "--a", "8", "--method", "decide",
                       "--lambda", "17/12")
    assert (code, out.strip()) == (0, "Embeds")
    code, out, _ = run(capsys, "eval", "--b", "2", "--a", "8", "--method", "decide",
                       "--lambda", "7/5")
    assert (code, out.strip()) == (0, "DoesNotEmbed")
    code, out, _ = run(capsys, "eval", "--b", "2", "--a", "17/2", "--method", "decide",
                       "--lambda", "sqrt(17/8)")
    assert (code, out.strip()) == (0, "Embeds")  # exact volume embeds on a volume branch
    code, _, err = run(capsys, "eval", "--b", "2", "--a", "8", "--method", "decide")
    assert code == 1 and "lambda" in err


def test_eval_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "eval", "--b", "2", "--a", "1/2")
    assert code == 1
    assert "error" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--b", "2", "--method", "closed"])  # missing --a
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--b", "2", "--a", "8", "--method", "ech", "--n", "0"],
        ["eval", "--b", "2", "--a", "8", "--method", "ech", "--n", "-4"],
        ["verify", "ech", "--n", "0"],
        ["scan", "--b", "2", "--a", "4:6", "--ech-n", "-1"],
        ["scan", "--b", "2", "--a", "4:6", "--ech-n", "x"],
    ],
)
def test_ech_term_count_must_be_positive(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "not a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["reduce", "(2;1,1,1,1,1)", "--max-steps", "0"], "not a positive integer"),
        (["reduce", "(2;1,1,1,1,1)", "--max-steps", "-3"], "not a positive integer"),
        (["table", "--b", "2", "--a", "1:10", "--n", "1"], "not a sample count"),
        (["plot", "--b", "2", "--a", "1:10", "--n", "1", "--out", "-"], "not a sample count"),
        (["scan", "--b", "2", "--a", "4:6", "--n", "1"], "not a sample count"),
        (["eval", "--b", "2", "--a", "8", "--method", "bisect", "--tol", "0"], "not a positive rational"),
        (["eval", "--b", "2", "--a", "8", "--method", "bisect", "--tol=-1/10"], "not a positive rational"),
        (["eval", "--b", "1", "--a", "8"], "not an integer b >= 2"),
        (["table", "--b", "1", "--a", "1:10"], "not an integer b >= 2"),
        (["verify", "alarge", "--b", "1"], "not an integer b >= 2"),
        (["verify", "alarge", "--b", "-2"], "not an integer b >= 2"),
        (["verify", "geometry", "--b", "-5"], "not an integer b >= 2"),
        (["verify", "edges", "--b", "1"], "not an integer b >= 2"),
        (["verify", "method2", "--b", "1"], "not an integer b >= 2"),
        (["verify", "ech", "--b", "1"], "not an integer b >= 2"),
        (["verify", "classes", "--max-n", "-1"], "not a nonnegative integer"),
        (["classes", "--max-n", "-1"], "not a nonnegative integer"),
        (["classes", "--max-b", "-1"], "not a nonnegative integer"),
        (["classes", "--max-n", "501"], "not a nonnegative integer up to 500"),
        (["classes", "--max-b", "501"], "not a nonnegative integer up to 500"),
        (["verify", "classes", "--max-n", "501"], "not a nonnegative integer up to 500"),
        (["eval", "--b", "2", "--a", "8", "--method", "ech", "--n", "1000000001"], "not a positive integer"),
        (["verify", "ech", "--n", "1000000001"], "not a positive integer"),
        (["scan", "--b", "2", "--a", "4:6", "--ech-n", "1000000001"], "not a positive integer"),
        (["table", "--b", "2", "--a", "1:10", "--n", "10001"], "not a sample count"),
        (["plot", "--b", "2", "--a", "1:10", "--n", "10001", "--out", "-"], "not a sample count"),
        (["scan", "--b", "2", "--a", "4:6", "--n", "10001"], "not a sample count"),
        (["scan", "--b", "x", "--a", "4:6"], "not a comma list of rationals b >= 2"),
        (["scan", "--b", "0", "--a", "4:6"], "not a comma list of rationals b >= 2"),
        (["scan", "--b", "1/2", "--a", "4:6"], "not a comma list of rationals b >= 2"),
        (["scan", "--b", "2,3/2", "--a", "4:6"], "not a comma list of rationals b >= 2"),
        (["table", "--b", "2", "--a", "8:4"], "not a range lo:hi"),
        (["table", "--b", "2", "--a", "0:4"], "not a range lo:hi"),
        (["plot", "--b", "2", "--a", "8:4", "--out", "-"], "not a range lo:hi"),
        (["plot", "--b", "2", "--a", "0:4", "--out", "-"], "not a range lo:hi"),
        (["scan", "--b", "2", "--a", "8:4"], "not a range lo:hi"),
        (["scan", "--b", "2", "--a", "0:4"], "not a range lo:hi"),
        (["plot", "--b", "0", "--a", "1:10", "--out", "-"], "not a rational b >= 1"),
        (["plot", "--b", "-3", "--a", "1:10", "--out", "-"], "not a rational b >= 1"),
        (["plot", "--b", "1/2", "--a", "1:10", "--out", "-"], "not a rational b >= 1"),
        (["plot", "--b", "2", "--a", "1:10", "--overlays", "ech:0", "--out", "-"], "not a comma list of overlays"),
        (["plot", "--b", "2", "--a", "1:10", "--overlays", "ech:x", "--out", "-"], "not a comma list of overlays"),
        (["plot", "--b", "2", "--a", "1:10", "--overlays", "volume,ech:1000000001", "--out", "-"],
         "not a comma list of overlays"),
        (["plot", "--b", "2", "--a", "1:10", "--overlays", "nope", "--out", "-"], "not a comma list of overlays"),
        (["plot", "--b", "2", "--a", "1:10", "--overlays", "volume:3", "--out", "-"], "not a comma list of overlays"),
        (["eval", "--b", "2", "--a", "8", "--method", "decide", "--lambda", "foo"], "not a positive exact number"),
        (["eval", "--b", "2", "--a", "8", "--method", "decide", "--lambda", "0"], "not a positive exact number"),
        (["eval", "--b", "2", "--a", "8", "--method", "decide", "--lambda", "sqrt(2)+sqrt(3)"],
         "not a positive exact number"),
        (["reduce", "(2;1,x)"], "not a blow-up vector"),
        # a parse failure names its reason
        (["plot", "--b", "2", "--a", "1:10", "--overlays", "volume,ech:1000000001", "--out", "-"],
         "not a comma list of overlays: 'volume,ech:1000000001' "
         "(ECH term count not in 1..10^9: 'ech:1000000001')"),
        (["reduce", "(2;1,x)"], "(2;1,x)' (not an exact number: 'x')"),
        (["eval", "--b", "2", "--a", "8", "--method", "decide", "--lambda", "foo"],
         "not a positive exact number: 'foo' (not an exact number: 'foo')"),
    ],
)
def test_out_of_range_arguments_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_argument_limits_are_inclusive():
    # parsed only, so the largest accepted sizes start no run
    parse = build_parser().parse_args
    assert parse(["eval", "--b", "2", "--a", "8", "--n", "1000000000"]).n == 10**9
    assert parse(["verify", "ech", "--n", "1000000000"]).n == 10**9
    scan = parse(["scan", "--b", "2,5/2", "--a", "1:2", "--n", "10000", "--ech-n", "1000000000"])
    assert (scan.b, scan.a, scan.n, scan.ech_n) == ([2, Fraction(5, 2)], (1, 2), 10**4, 10**9)
    assert parse(["table", "--b", "2", "--a", "1:10", "--n", "10000"]).n == 10**4
    assert parse(["plot", "--b", "2", "--a", "1:10", "--n", "10000", "--out", "-"]).n == 10**4
    plot = parse(["plot", "--b", "1", "--a", "1:10", "--overlays", "ech:1000000000,ech(1000000000)",
                  "--out", "-"])
    assert (plot.b, plot.overlays) == (1, ("ech:1000000000", "ech(1000000000)"))


def test_reduce_max_steps_caps_the_moves(capsys):
    code, out, _ = run(capsys, "reduce", "(2;1,1,1,1,1)", "--max-steps", "2")
    assert (code, out.splitlines()[-1]) == (0, "steps 2")
    code, _, err = run(capsys, "reduce", "(2;1,1,1,1,1)", "--max-steps", "1")
    assert code == 1
    assert "no reduced vector within 1" in err


def test_reduce_prints_trace(capsys):
    code, out, _ = run(capsys, "reduce", "(2;1,1,1,1,1)")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "init (2;1,1,1,1,1)"
    assert lines[-1] == "steps 2"


def test_reduce_accepts_polydisc_vectors(capsys):
    code, out, _ = run(capsys, "reduce", "(6,3;3,2,2,2,2,2,2,2)")
    assert code == 0
    assert out.splitlines()[-1] == "steps 5"


@pytest.mark.parametrize(
    "vector,steps,digest",
    [
        # the Method-2 vector of b = 2, a = 8 at lambda = 17/12
        ("(17/4;17/6,17/12,1,1,1,1,1,1,1,1)", 8,
         "00e9966f8059ebac1fe778d6976552db6cd56055611e68114696a198ea9fd800"),
        # a Q(sqrt(3)) vector: the defects are surds
        ("(0+3*sqrt(3);0+2*sqrt(3),0+1*sqrt(3),1,1,1,1,1,1,1,1,1/2,1/2)", 4,
         "e114867dea5d7a5e9c12ac7e7e31fe2cc37b53099585941ee5888f6c16de4883"),
    ],
    ids=["rational", "sqrt3"],
)
def test_reduce_output_is_pinned_for_non_integer_vectors(capsys, vector, steps, digest):
    code, out, _ = run(capsys, "reduce", vector)
    assert code == 0
    assert out.splitlines()[-1] == f"steps {steps}"
    assert hashlib.sha256(out.encode()).hexdigest() == digest  # the whole output, byte for byte


def test_reduce_rejects_mixed_radicands(capsys):
    code, out, err = run(capsys, "reduce", "(10;3,2,1,0+1/10*sqrt(2),1/10,0+1/100*sqrt(3))")
    assert (code, out) == (1, "")
    assert "distinct fields" in err


def test_classes_listing(capsys):
    code, out, _ = run(capsys, "classes", "--max-n", "2", "--max-b", "2")
    assert code == 0
    lines = out.splitlines()
    assert "1,0:1" in lines  # E_0
    assert "6,3:3 2 2 2 2 2 2 2" in lines  # F_2
    assert "10,5:4 4 4 4 4 4 1 1 1 1 1" in lines  # G_2


SCAN_PIN = """\
b,a_num,a_den,db_real,db_real_float,ech_lower,ech_lower_float,consistent
2,4,1,1,1,1,1,yes
2,5,1,5/4,1.25,5/4,1.25,yes
2,6,1,5/4,1.25,5/4,1.25,yes
2,7,1,7/5,1.4,7/5,1.4,yes
2,8,1,17/12,1.41666666666667,17/12,1.41666666666667,yes
5/2,4,1,1,1,1,1,yes
5/2,5,1,10/9,1.11111111111111,1,1,yes
5/2,6,1,10/9,1.11111111111111,6/5,1.2,NO
5/2,7,1,14/11,1.27272727272727,6/5,1.2,yes
5/2,8,1,14/11,1.27272727272727,4/3,1.33333333333333,NO
"""


def test_scan_consistency_column(capsys):
    code, out, _ = run(capsys, "scan", "--b", "2,5/2", "--a", "4:8", "--n", "5", "--ech-n", "200")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("b,a_num,a_den")
    # integer b: the polydisc and ellipsoid problems coincide, so the ECH
    # bound can never exceed the obstruction maximum
    assert all(line.endswith(",yes") for line in lines[1:] if line.startswith("2,"))
    # rational b rows are exploratory output; both verdicts may appear
    assert all(line.count(",") == 7 for line in lines[1:])
    assert out == SCAN_PIN  # the whole output, byte for byte


@pytest.mark.parametrize(
    "name,argv",
    [
        ("figure_b2_closed.csv", ["table", "--b", "2", "--a", "1:10", "--n", "181"]),
        ("figure_b9_closed.csv", ["table", "--b", "9", "--a", "1:28", "--n", "217"]),
        ("figure_b5_folding.csv", ["table", "--b", "5", "--a", "9:20", "--n", "199"]),
    ],
)
def test_golden_tables(tmp_path, name, argv):
    out_path = tmp_path / name
    assert main(argv + ["--out", str(out_path)]) == 0
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        expected = fh.read()
    assert out_path.read_bytes() == expected


def test_unwritable_output_path_is_io_error(capsys):
    code, _, err = run(capsys, "table", "--b", "2", "--a", "1:5", "--n", "5",
                       "--out", "/nonexistent-dir/table.csv")
    assert code == 1
    assert "error" in err


def test_ech_overlay_accepts_both_spellings(tmp_path):
    texts = []
    for overlay in ("ech:100", "ech(100)"):
        out = tmp_path / "plot.svg"
        code = main(["plot", "--b", "2", "--a", "4:8", "--n", "9",
                     "--overlays", overlay, "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert f'data-overlay="{overlay}"' in text
        texts.append(text.replace(f'data-overlay="{overlay}"', ""))
    assert texts[0] == texts[1]  # the same stroke colour and the same points
    assert 'stroke="#ff7f0e"' in texts[0]


def test_table_byte_stable_across_runs():
    first = emit_table_csv(3, Fraction(1), Fraction(12), 97)
    second = emit_table_csv(3, Fraction(1), Fraction(12), 97)
    assert first == second


def test_svg_structure_and_determinism(tmp_path):
    out = tmp_path / "plot.svg"
    argv = ["plot", "--b", "2", "--a", "1:10", "--n", "40",
            "--overlays", "closed-form,volume,folding", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first
    text = first.decode()
    assert text.count("<polyline") == 3
    assert 'data-overlay="closed-form"' in text
    assert "<circle" in text  # breakpoint markers
    assert text.startswith("<svg")


def test_svg_rational_b_volume_only(tmp_path):
    out = tmp_path / "plot.svg"
    code = main(["plot", "--b", "5/2", "--a", "4:10", "--n", "20",
                 "--overlays", "volume,db_real", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.count("<polyline") == 2
    assert "<circle" not in text  # no integer-b breakpoints


def test_svg_rejects_closed_form_for_rational_b(tmp_path):
    out = tmp_path / "plot.svg"
    code = main(["plot", "--b", "5/2", "--a", "4:10", "--n", "20",
                 "--overlays", "closed-form", "--out", str(out)])
    assert code == 1


def test_emit_svg_default_overlays_follow_b():
    text = emit_svg(2, 1, 9, 10)
    assert text.count("<polyline") == 2
    assert 'data-overlay="closed-form"' in text and 'data-overlay="volume"' in text
    text = emit_svg(Fraction(5, 2), 1, 9, 10)
    assert text.count("<polyline") == 1
    assert 'data-overlay="volume"' in text


def test_plot_default_overlays(tmp_path):
    out = tmp_path / "plot.svg"
    assert main(["plot", "--b", "5/2", "--a", "4:8", "--out", str(out)]) == 0
    assert out.read_text() == emit_svg(Fraction(5, 2), 4, 8, 181, ["volume"])
    assert main(["plot", "--b", "5", "--a", "9:20", "--out", str(out)]) == 0
    assert out.read_text() == emit_svg(5, 9, 20, 181, ["closed-form", "volume"])


def test_verify_suites_pass(capsys):
    for suite, extra in [
        ("weights", []),
        ("edges", ["--b", "3"]),
        ("equivalence", []),
        ("classes", ["--max-n", "4"]),
        ("method2", []),
        ("ech", []),
        ("geometry", []),
        ("alarge", []),
    ]:
        code, out, _ = run(capsys, "verify", suite, *extra)
        assert code == 0, out
        assert "FAIL" not in out
        assert "PASS" in out


def test_verify_report_shape(capsys):
    code, out, _ = run(capsys, "verify", "edges", "--b", "2")
    assert code == 0
    for line in out.splitlines():
        assert "expected=" in line and "got=" in line
        assert line.endswith("PASS")


def test_verify_trace_prints_each_certification(capsys):
    code, out, _ = run(capsys, "verify", "classes", "--max-n", "2", "--trace")
    assert code == 0
    traced = {}  # record line -> the indented lines printed under it
    for line in out.splitlines():
        if line.startswith("    "):
            traced[record].append(line[4:])
        else:
            record = line
            traced[record] = []
    families = {"E": gen_E, "F": gen_F}
    for record, lines in traced.items():
        name = record.split()[1]  # "certify E2 (moves) ..." -> "E2"
        if "(moves)" in record:
            assert lines == certification_trace(families[name[0]](int(name[1:]))).to_lines()
        else:
            assert lines == [], record  # G_b records carry no trace
    assert sum(1 for lines in traced.values() if lines) == 5  # E0..E2, F1, F2
    for suite in ("weights", "edges", "method2", "equivalence", "ech", "geometry", "alarge"):
        code, out, _ = run(capsys, "verify", suite, "--trace")
        assert code == 0
        assert not [line for line in out.splitlines() if line.startswith(" ")], suite
