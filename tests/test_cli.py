import io
import json
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

import sheafcalc as sc
from sheafcalc.cli import main
from sheafcalc.errors import ConvolutionTypeError, TamarkinClassError, ValidationError
from sheafcalc.intervals import barcode_from_json, barcode_to_json
from sheafcalc.plot import svg_barcode, text_barcode


def write_barcode(tmp_path, name, b):
    p = tmp_path / name
    p.write_text(json.dumps(barcode_to_json(b)))
    return str(p)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ops_convolve_round_trip(tmp_path, capsys):
    a = write_barcode(tmp_path, "a.json", sc.barcode(sc.bar(0, 1)))
    b = write_barcode(tmp_path, "b.json", sc.barcode(sc.bar(0, 2)))
    code, out, _ = run_cli(["ops", "convolve", a, b], capsys)
    assert code == 0
    got = barcode_from_json(json.loads(out))
    assert got == sc.barcode(sc.bar(0, 1), sc.bar(2, 3, degree=1))


def test_json_output_deterministic(tmp_path, capsys):
    a = write_barcode(tmp_path, "a.json", sc.barcode(sc.bar(0, 2), sc.bar(1, 3, degree=1)))
    outs = set()
    for _ in range(3):
        code, out, _ = run_cli(["barcode", a], capsys)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_parse_emit_round_trip(tmp_path, capsys, rng):
    from conftest import rand_tamarkin_barcode

    for i in range(10):
        b = rand_tamarkin_barcode(rng)
        path = write_barcode(tmp_path, f"r{i}.json", b)
        code, out, _ = run_cli(["barcode", path], capsys)
        assert code == 0
        assert barcode_from_json(json.loads(out)) == b


def test_barcode_queries(tmp_path, capsys):
    a = write_barcode(tmp_path, "a.json", sc.barcode(sc.bar(0, 2)))
    code, out, _ = run_cli(["barcode", a, "--stalk", "1"], capsys)
    assert code == 0 and json.loads(out) == {"dims": {"0": 1}}
    code, out, _ = run_cli(["barcode", a, "--spec"], capsys)
    assert code == 0 and json.loads(out) == {"spec": ["0", "2"]}
    code, out, _ = run_cli(["barcode", a, "--sections", "1"], capsys)
    assert code == 0 and json.loads(out) == {"dims": {"0": 1}}


@pytest.mark.parametrize(
    "argv",
    [
        ["ops", "shift-t", "@", "--c", "-1/2"],
        ["ops", "shift-t", "@", "--c", "-pi"],
        ["ops", "shift-t", "@", "--c", "-1e-3"],
        ["barcode", "@", "--stalk", "-1/2"],
        ["barcode", "@", "--sections", "-inf"],
        ["-p", "3", "barcode", "@", "--stalk", "-.5"],
    ],
    ids=["shift-t-fraction", "shift-t-pi", "shift-t-exponent", "stalk-fraction", "sections-inf", "field-and-stalk"],
)
def test_negative_scalar_after_its_option(tmp_path, capsys, argv):
    # argparse's own pattern reads these values as flags (an exit-2
    # refusal); each must act as its --option=value form does
    a = write_barcode(tmp_path, "a.json", sc.barcode(sc.bar(-1, 2), sc.bar(-2, "+inf", degree=1)))
    argv = [a if x == "@" else x for x in argv]
    code, out, err = run_cli(argv, capsys)
    code2, joined, _ = run_cli(argv[:-2] + [f"{argv[-2]}={argv[-1]}"], capsys)
    assert code == code2 == 0 and err == ""
    assert out == joined


def test_dist_output(tmp_path, capsys):
    a = write_barcode(tmp_path, "a.json", sc.barcode(sc.bar(0, 4)))
    b = write_barcode(tmp_path, "b.json", sc.barcode(sc.bar(F(1, 2), F(21, 5))))
    code, out, _ = run_cli(["dist", a, b], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["bottleneck"] == "1/2"
    assert payload["witness"]["pairs"] == [[0, 0]]
    code, out, err = run_cli(["dist", a, b, "--delta", "+inf"], capsys)
    assert code == 2 and out == "" and err.startswith("error: ")


def test_dist_combined_wire_format(tmp_path, capsys):
    combined = tmp_path / "pair.json"
    combined.write_text(
        json.dumps(
            {
                "b1": barcode_to_json(sc.barcode(sc.bar(0, 4))),
                "b2": barcode_to_json(sc.barcode(sc.bar(F(1, 2), F(21, 5)))),
            }
        )
    )
    code, out, _ = run_cli(["dist", str(combined)], capsys)
    assert code == 0
    assert json.loads(out)["bottleneck"] == "1/2"


def test_domain_spec_json_form(capsys):
    code, out, _ = run_cli(
        ["domain", "--spec-json", '{"ball":{"n":2,"r":"1"}}', "--invariant", "1"],
        capsys,
    )
    assert code == 0 and json.loads(out) == {"dims": {"0": 1}}


def test_domain_cone_rank(capsys):
    code, out, _ = run_cli(
        ["domain", "ball", "--n", "1", "--r", "1", "--cone", "2", "--c", "1/2", "--M", "32"],
        capsys,
    )
    assert code == 0 and json.loads(out) == {"dims": {"2": 1}}
    # --c is no part of the domain, so it goes with --spec-json too
    code, by_spec, _ = run_cli(
        ["domain", "--spec-json", '{"ball":{"n":1,"r":"1"}}', "--cone", "2", "--c", "1/2", "--M", "32"],
        capsys,
    )
    assert code == 0 and by_spec == out


def test_ops_scalar_results(tmp_path, capsys):
    a = write_barcode(tmp_path, "a.json", sc.barcode(sc.bar(0, 2)))
    code, out, _ = run_cli(["ops", "capacity", a], capsys)
    assert code == 0 and json.loads(out) == {"capacity": "2"}
    code, out, _ = run_cli(["ops", "torsion", a], capsys)
    assert code == 0 and json.loads(out) == {"torsion": "2"}


def test_domain_svg_ticks(capsys):
    code, out, _ = run_cli(
        ["domain", "ball", "--n", "1", "--r", "1", "--tmax", "3pi", "--format", "svg"],
        capsys,
    )
    assert code == 0
    assert out.startswith("<svg")
    assert "π" in out and "2π" in out and "3π" in out
    assert out.count('stroke="#1f4e8c"') >= 3  # three bars


def test_infinite_ends_meet_the_margins():
    b = sc.barcode(sc.bar("-inf", 0, lo_closed=False), sc.bar(1, "+inf"))
    svg = svg_barcode(b)
    # both arrowheads point at the plot margins, 56 and 720 - 56
    assert "L 56.00 " in svg and "L 664.00 " in svg and svg.count("<path") == 2
    rows = [line.split("|")[1] for line in text_barcode(b, width=20).splitlines()]
    assert rows[0][0] == "<" and rows[1][-1] == ">" and all(len(r) == 20 for r in rows)


@pytest.mark.parametrize(
    "kind, spec_json, positional",
    [
        ("ball", '{"ball":{"n":1,"r":"1"}}', ["--n", "1", "--r", "1"]),
        ("ellipsoid", '{"ellipsoid":{"n":2,"r":"1","R":"2"}}', ["--n", "2", "--r", "1", "--R", "2"]),
        ("scaled-ball", '{"scaled_ball":{"c":"1/2","ball":{"n":1,"r":"1"}}}', ["--n", "1", "--r", "1", "--c", "1/2"]),
    ],
)
def test_domain_svg_title_same_for_spec_json(capsys, kind, spec_json, positional):
    tail = ["--tmax", "3pi", "--format", "svg"]
    code, by_spec, _ = run_cli(["domain", "--spec-json", spec_json, *tail], capsys)
    code2, by_kind, _ = run_cli(["domain", kind, *positional, *tail], capsys)
    assert code == 0 and code2 == 0
    assert f">{kind} barcode</text>" in by_kind
    assert by_spec == by_kind


@pytest.mark.parametrize("simplices", [[["a", "b"]], [[0, "a"]]])
def test_complex_json_vertex_error_names_the_simplex(tmp_path, capsys, simplices):
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"values": [0, 1, 2], "simplices": simplices}))
    code, out, err = run_cli(["morse", "sublevel", str(path)], capsys)
    assert code == 2 and out == ""
    assert "needs int vertices" in err


def test_domain_invariant_and_eigen(capsys):
    code, out, _ = run_cli(["domain", "ball", "--n", "1", "--r", "1", "--invariant", "4"], capsys)
    assert code == 0 and json.loads(out) == {"dims": {"2": 1}}
    code, out, _ = run_cli(["domain", "ball", "--n", "1", "--r", "1", "--eigen", "4", "--M", "32"], capsys)
    assert code == 0 and json.loads(out) == {"eigen_count": 3}


def test_nonsqueeze_cli(capsys):
    code, out, _ = run_cli(["nonsqueeze", "--n", "2", "--r1", "1.2", "--r2", "1", "--R", "10"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "OBSTRUCTED"
    assert payload["ball_invariant"] == {"dims": {"0": 1}}
    assert payload["ellipsoid_invariant"] == {"dims": {"2": 1}}


def test_morse_text_format(tmp_path, capsys):
    complex_file = tmp_path / "circle.txt"
    complex_file.write_text(
        "# 4-vertex circle\n4 4\n0 2 1 3\n2 0 1\n2 1 2\n2 2 3\n2 0 3\n"
    )
    code, out, _ = run_cli(["morse", "sublevel", str(complex_file)], capsys)
    assert code == 0
    got = barcode_from_json(json.loads(out))
    assert got == sc.barcode(sc.bar(0, "+inf"), sc.bar(1, 2), sc.bar(3, "+inf", degree=1))


def test_morse_json_format_and_front(tmp_path, capsys):
    complex_file = tmp_path / "circle.json"
    complex_file.write_text(
        json.dumps({"values": ["0", "2", "1", "3"], "simplices": [[0, 1], [1, 2], [2, 3], [0, 3]]})
    )
    code, out, _ = run_cli(["morse", "superlevel", str(complex_file)], capsys)
    assert code == 0
    front_file = tmp_path / "front.json"
    front_file.write_text(
        json.dumps({"xs": ["-1", "0", "1"], "t_minus": ["0", "1", "0"], "t_plus": ["0", "2", "0"]})
    )
    code, out, _ = run_cli(["morse", "front", str(front_file)], capsys)
    assert code == 0
    assert barcode_from_json(json.loads(out)) == sc.barcode(sc.bar(0, 3, degree=-1), sc.bar(-3, 0))
    code, out, _ = run_cli(["morse", "front", str(front_file), "--capacity"], capsys)
    assert code == 0 and json.loads(out) == {"front_capacity": "3"}


def test_plot_pure_function_of_barcode(tmp_path, capsys):
    a = write_barcode(tmp_path, "a.json", sc.barcode(sc.bar(0, 2), sc.bar(1, 3)))
    code, svg1, _ = run_cli(["plot", a], capsys)
    code2, svg2, _ = run_cli(["plot", a], capsys)
    assert code == 0 and code2 == 0 and svg1 == svg2
    # unordered input canonicalizes to the same picture
    b = write_barcode(tmp_path, "b.json", sc.barcode(sc.bar(1, 3), sc.bar(0, 2)))
    _, svg3, _ = run_cli(["plot", b], capsys)
    assert svg3 == svg1


def test_exit_code_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["barcode", str(bad)], capsys)
    assert code == 2 and "error:" in err


GOOD_BAR = {"lo": {"v": "0", "closed": True}, "hi": {"v": "2", "closed": False}, "deg": 0, "mult": 1}


@pytest.mark.parametrize(
    "field, value",
    [
        ("deg", 1.7),
        ("mult", True),
        ("lo", {"v": {"pi": 0.1}, "closed": True}),
        ("lo", {"v": True, "closed": True}),
        ("lo", {"v": "0", "closed": "no"}),
    ],
    ids=["float-deg", "bool-mult", "float-pi", "bool-value", "string-closed"],
)
def test_inexact_bar_json_rejected(tmp_path, capsys, field, value):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"bars": [dict(GOOD_BAR, **{field: value})]}))
    code, out, err = run_cli(["barcode", str(p)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


_LONG_LITERAL = "0." + "1" * 5000
LONG_LITERAL_CASES = [
    (["domain", "ball", "--n", "1", "--r", "1", "--stalk", _LONG_LITERAL], None),
    (["barcode", "@"], json.dumps({"bars": [dict(GOOD_BAR, lo={"v": _LONG_LITERAL, "closed": True})]})),
    (["morse", "sublevel", "@"], f"3 1\n0 {_LONG_LITERAL} 1\n3 0 1 2\n"),
]
LONG_LITERAL_IDS = ["long-literal-scalar", "long-literal-barcode-json", "long-literal-complex-off"]
# one bar counted past the 20,000-bar expansion cap, and past a list index
_PAST_CAP_MULT = json.dumps({"bars": [dict(GOOD_BAR, mult=20_001)]})
_BIG_MULT = json.dumps({"bars": [dict(GOOD_BAR, mult=10**30)]})
# 1,601 by 1,600 bars in degree 1: 2,561,600 pairs, past the 2,560,000-pair cap
_PAST_CAP_PAIRS = json.dumps({
    "b1": {"bars": [GOOD_BAR, dict(GOOD_BAR, deg=1, mult=1601)]},
    "b2": {"bars": [dict(GOOD_BAR, deg=1, mult=1600)]},
})
# a circle on 25,001 vertices has 50,002 simplices, past the 50,000-simplex cap
_PAST_CAP_CIRCLE = json.dumps({"values": [0] * 25_001, "simplices": [[i, (i + 1) % 25_001] for i in range(25_001)]})

# OFF-like headers whose simplex count is not the number of simplex lines
_MISCOUNTED_OFF = ["3 5\n0 1 2\n3 0 1 2\n", "3 -1\n0 1 2\n3 0 1 2\n", "3 1\n0 1 2\n2 0 1\n2 1 2\n"]
_MISCOUNTED_OFF_IDS = ["complex-off-too-few-simplices", "complex-off-negative-count", "complex-off-too-many-simplices"]


def _one_bar(lo, lo_closed, hi, hi_closed, **fields):
    return json.dumps({"bars": [dict(GOOD_BAR, lo={"v": lo, "closed": lo_closed}, hi={"v": hi, "closed": hi_closed}, **fields)]})


# ends past the 4,300-digit limit for writing integers, in bars the
# messages quote: an empty interval and a (1e5000, 2e5000] bar
_EMPTY_PAST_DIGITS = _one_bar("1e5000", True, "0", False)
_RC_PAST_DIGITS = _one_bar("1e5000", False, "2e5000", True)
# a bar whose left end a float cannot hold
_PAST_FLOAT = _one_bar("1e400", True, "+inf", False)


@pytest.mark.parametrize(
    "argv, text, env",
    [
        (["domain", "--spec-json", '{"ball":{"n":1.7,"r":"1/10"}}', "--invariant", "1"], None, None),
        (["domain", "--spec-json", '{"ball":{"n":true,"r":"1"}}', "--invariant", "1"], None, None),
        (["domain", "--spec-json", '{"ball":{"n":1,"r":0.1}}', "--invariant", "1"], None, None),
        (["domain", "--spec-json", '{"ellipsoid":{"n":2,"r":"1","R":2.5}}', "--invariant", "1"], None, None),
        (["domain", "--spec-json", '{"scaled_ball":{"c":0.5,"ball":{"n":1,"r":"1"}}}', "--invariant", "1"], None, None),
        (["domain", "--spec-json", '{"ball":{"n":2', "--invariant", "1"], None, None),
        (["domain", "ball", "--n", "1", "--r", "abc", "--tmax", "3pi"], None, None),
        (["nonsqueeze", "--n", "2", "--r1", "1/0", "--r2", "1", "--R", "10"], None, None),
        (["morse", "sublevel", "@"], '{"values": [', None),
        (["morse", "front", "@"], "{not json", None),
        (["morse", "front", "@"], '{"xs": ["0", "1"], "t_minus": ["0", "0"]}', None),
        (["morse", "sublevel", "@"], "3 3\n0 1 2\n2 0 1\n2 1 2\n2 0 2\n", "abc"),
        (["morse", "sublevel", "@"], '{"values": [0, 0.1, 1], "simplices": [[0, 1, 2]]}', None),
        (["morse", "sublevel", "@"], '{"values": [0, true, 1], "simplices": [[0, 1, 2]]}', None),
        (["morse", "front", "@", "--capacity"], '{"xs": [0.5, 1.5], "t_minus": [true, 0.25], "t_plus": [1, 2]}', None),
        (["morse", "front", "@", "--capacity"], '{"xs": ["0", "1"], "t_minus": [true, "0"], "t_plus": [1, 2]}', None),
        (["domain", "ball", "--n", "1", "--r", "1", "--stalk", "xpi"], None, None),
        (["barcode", "@"], '{"bars": [{"lo": {"v": ' + "9" * 5000 + ', "closed": true}, '
         '"hi": {"v": "+inf", "closed": false}}]}', None),
        (["barcode", "@"], "[" * 100000, None),
        (["barcode", "@"], b'{"bars": [\xff\xfe]}', None),
        (["morse", "sublevel", "@"], '{"values": [0, 1, 2], "simplices": [["a", "b"]]}', None),
        (["morse", "sublevel", "@"], '{"values": [0, 1, 2], "simplices": [[0, "a"]]}', None),
        (["morse", "sublevel", "@"], '{"values": [0, 1, 2], "simplices": [[[0], [1]]]}', None),
        (["morse", "sublevel", "@"], '{"values": [0, 1, 2], "simplices": [[0, 1.0]]}', None),
        (["morse", "sublevel", "@"], '{"values": [0, 1, 2], "simplices": [[true, 0]]}', None),
        (["morse", "sublevel", "@"], '{"values": [0, 1, 2], "simplices": [[0, 0, 1]]}', None),
        (["morse", "sublevel", "@"], '{"values": [0, 1, 2], "simplices": [[0, 1, 5]]}', None),
        (["morse", "sublevel", "@"], '{"values": [0, 1, 2], "simplices": [[0, -1]]}', None),
        (["morse", "sublevel", "@"], '{"values": [0, 1, 2], "simplices": [5]}', None),
        (["domain", "ball", "--n", "1", "--r", "1", "--stalk", "+inf"], None, None),
        (["domain", "ball", "--n", "1", "--r", "1", "--invariant=+inf"], None, None),
        (["domain", "ball", "--n", "1", "--r", "1", "--invariant=-inf"], None, None),
        (["domain", "ball", "--n", "1", "--r", "1", "--tmax", "+inf"], None, None),
        (["domain", "ball", "--n", "1", "--r", "1", "--transfer", "0", "+inf"], None, None),
        (["domain", "ball", "--n", "1", "--r", "1", "--eigen", "1e10000"], None, None),
        (["domain", "ball", "--n", "1", "--r", "1", "--cone", "1e10000", "--c", "1/2"], None, None),
        (["domain", "ball", "--n", "1", "--r", "1e2000000", "--stalk", "1"], None, None),
        (["domain", "ball", "--n", "1", "--r", "1", "--stalk", "1e6000000"], None, None),
        (["domain", "ball", "--n", "1", "--r", "1", "--stalk", "1E-2_000_000pi+1"], None, None),
        (["barcode", "@"], '{"bars": [{"lo": {"v": "1e2000000", "closed": true}, '
         '"hi": {"v": "+inf", "closed": false}, "deg": 0, "mult": 1}]}', None),
        (["domain", "--spec-json", '{"ball":{"n":1,"r":"1e2000000"}}', "--invariant", "1"], None, None),
        (["morse", "sublevel", "@"], '{"values": [0, "1e2000000", 1], "simplices": [[0, 1, 2]]}', None),
        (["morse", "sublevel", "@"], "3 1\n0 1e2000000 1\n3 0 1 2\n", None),
        (["domain", "ball", "--n", "1", "--r", "1", "--tmax", "20000pi"], None, None),
        (["domain", "ellipsoid", "--n", "2", "--r", "1", "--R", "2", "--tmax", "1e100000pi"], None, None),
        (["domain", "ball", "--n", "1", "--r", "1", "--eigen", "1", "--M", "20001"], None, None),
        (["domain", "ball", "--n", "1", "--r", "1", "--cone", "1", "--c", "1/2", "--M", "100000000"], None, None),
        (["dist", "@", "@"], _BIG_MULT, None),
        (["dist", "@"], _PAST_CAP_PAIRS, None),
        (["dist", "@", "--delta", "1"], _PAST_CAP_PAIRS, None),
        (["plot", "@"], _BIG_MULT, None),
        (["barcode", "@", "--format", "svg"], _PAST_CAP_MULT, None),
        (["ops", "adjoint", "@", "--format", "svg"], _PAST_CAP_MULT, None),
        (["domain", "ball", "--n", "3", "--r", "7", "--spec-json", '{"ellipsoid":{"n":2,"r":"1","R":"2"}}',
          "--invariant", "4"], None, None),
        (["domain", "--spec-json", '{"ball":{"n":1,"r":"1"}}', "--r", "2", "--invariant", "1"], None, None),
        (["--field", str(10**400), "morse", "sublevel", "@"], "3 3\n0 1 2\n2 0 1\n2 1 2\n2 0 2\n", None),
        (["--field", "1000000000000000003", "morse", "sheaf", "@"], "3 3\n0 1 2\n2 0 1\n2 1 2\n2 0 2\n", None),
        (["morse", "sublevel", "@"], "3 3\n0 1 2\n2 0 1\n2 1 2\n2 0 2\n", str(10**400)),
        (["morse", "sublevel", "@"], _PAST_CAP_CIRCLE, None),
        (["morse", "sheaf", "@"], _PAST_CAP_CIRCLE, None),
        (["barcode", "@"], _EMPTY_PAST_DIGITS, None),
        (["ops", "convolve", "@", "@"], _RC_PAST_DIGITS, None),
        (["ops", "adjoint", "@"], _RC_PAST_DIGITS, None),
        (["ops", "rhom-total", "@", "@"], _RC_PAST_DIGITS, None),
        (["plot", "@"], _PAST_FLOAT, None),
        (["plot", "@", "--format", "text"], _PAST_FLOAT, None),
        (["barcode", "@", "--format", "svg"], _PAST_FLOAT, None),
        (["ops", "shift-t", "@", "--c", "1", "--format", "text"], _PAST_FLOAT, None),
        (["barcode", "@"], _one_bar("0", True, "+inf", True), None),
        (["barcode", "@"], json.dumps({"bars": [dict(GOOD_BAR, mult=0)]}), None),
        (["morse", "front", "@"], '{"xs": ["0", "1"], "t_minus": ["0"], "t_plus": ["1", "1"]}', None),
        (["domain", "--n", "1", "--r", "1", "--invariant", "1"], None, None),
        (["domain", "ellipsoid", "--n", "2", "--r", "1", "--invariant", "1"], None, None),
        (["domain", "scaled-ball", "--n", "1", "--r", "1", "--invariant", "1"], None, None),
        (["domain", "ball", "--n", "1", "--invariant", "1"], None, None),
        (["domain", "ellipsoid", "--n", "2", "--r", "1", "--R", "2", "--eigen", "1"], None, None),
        (["domain", "ball", "--n", "1", "--r", "1", "--eigen", "-1"], None, None),
        (["domain", "--spec-json", '{"torus":{"n":1,"r":"1"}}', "--invariant", "1"], None, None),
        (["dist", "@"], json.dumps({"b1": {"bars": [GOOD_BAR]}}), None),
        (["ops", "tau-rank", "@", "--c", "-1"], json.dumps({"bars": [GOOD_BAR]}), None),
        (["barcode", "@"], _one_bar("2", True, "1", False), None),
        (["barcode", "@"], _one_bar("1", False, "1", False), None),
        (["barcode", "@", "--sections", "-oo"], json.dumps({"bars": [GOOD_BAR]}), None),
        (["ops", "convolve", "@", "@", "--bogus"], json.dumps({"bars": [GOOD_BAR]}), None),
        (["barcode"], None, None),
        # a second query flag would be ignored, so it is refused
        (["barcode", "@", "--stalk", "1", "--sections", "1"], json.dumps({"bars": [GOOD_BAR]}), None),
        (["domain", "ball", "--n", "2", "--r", "1", "--stalk", "1", "--tmax", "3pi", "--eigen", "1"], None, None),
        (["morse", "front", "@", "--two-critical-bound"], '{"xs": ["0", "1"], "t_minus": ["0", "0"], "t_plus": ["1", "1"]}', None),
        (["morse", "sublevel", "@", "--capacity"], "3 1\n0 1 2\n3 0 1 2\n", None),
    ]
    + [(["morse", "sublevel", "@"], text, None) for text in _MISCOUNTED_OFF]
    + [(argv, text, None) for argv, text in LONG_LITERAL_CASES],
    ids=[
        "float-n", "bool-n", "float-r", "float-R", "float-c", "spec-json-syntax", "cli-r",
        "cli-r1-zero-denominator", "complex-json-syntax", "front-json-syntax", "front-missing-key",
        "field-env", "complex-float-value", "complex-bool-value", "front-float", "front-bool",
        "bad-pi-literal", "json-int-past-digit-limit", "json-nested-too-deep", "not-utf8",
        "complex-str-vertex", "complex-mixed-vertex", "complex-list-vertex", "complex-float-vertex", "complex-bool-vertex",
        "complex-repeated-vertex", "complex-unknown-vertex", "complex-negative-vertex", "complex-int-simplex",
        "stalk-inf", "invariant-inf", "invariant-neg-inf", "tmax-inf", "transfer-inf",
        "eigen-past-digit-limit", "cone-past-digit-limit",
        "exponent-cli-rational", "exponent-scalar", "exponent-pi-scalar", "exponent-barcode-json",
        "exponent-json-rational", "exponent-complex-json", "exponent-complex-off",
        "tmax-strata-cap", "tmax-strata-cap-huge", "eigen-M-cap", "cone-M-cap",
        "dist-mult-past-int-index", "dist-pairs-cap", "dist-delta-pairs-cap", "plot-mult-past-int-index", "svg-mult-cap", "ops-svg-mult-cap",
        "spec-json-with-kind", "spec-json-with-r", "field-huge", "field-past-cap", "field-env-huge",
        "complex-past-simplex-cap", "sheaf-past-simplex-cap",
        "empty-interval-past-digit-limit", "convolve-bar-past-digit-limit", "adjoint-bar-past-digit-limit",
        "rhom-total-bar-past-digit-limit", "plot-past-float", "plot-text-past-float", "svg-past-float",
        "ops-text-past-float", "closed-infinite-end", "mult-zero", "front-unequal-lengths", "domain-no-kind",
        "ellipsoid-no-R", "scaled-ball-no-c", "ball-no-r", "eigen-on-ellipsoid", "eigen-negative",
        "spec-json-unknown-kind", "dist-combined-no-b2", "tau-rank-negative-c", "interval-empty",
        "interval-degenerate", "argparse-flag-as-value", "argparse-unknown-option", "argparse-no-input",
        "barcode-two-queries", "domain-three-queries", "front-two-critical-bound", "sublevel-capacity",
    ]
    + _MISCOUNTED_OFF_IDS
    + LONG_LITERAL_IDS,
)
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, monkeypatch, argv, text, env):
    if text is not None:
        path = tmp_path / "in"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        argv = [str(path) if a == "@" else a for a in argv]
    if env is not None:
        monkeypatch.setenv("SHEAFCALC_FIELD", env)
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, declared, given", list(zip(_MISCOUNTED_OFF, (5, -1, 1), (1, 1, 2))), ids=_MISCOUNTED_OFF_IDS
)
def test_off_simplex_count_message_names_both_counts(tmp_path, capsys, text, declared, given):
    path = tmp_path / "in"
    path.write_text(text)
    code, out, err = run_cli(["morse", "sublevel", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: header declares {declared} simplices, the file gives {given}\n"


@pytest.mark.parametrize("argv, text", LONG_LITERAL_CASES, ids=LONG_LITERAL_IDS)
def test_long_literal_message_names_its_length(tmp_path, capsys, argv, text):
    # the 5,002-character literal is past the interpreter's 4,300-digit
    # int-from-string limit; the message says so without echoing it
    if text is not None:
        path = tmp_path / "in"
        path.write_text(text)
        argv = [str(path) if a == "@" else a for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and len(err) < 200 and "5002 characters" in err


_BIG = [1] * 5000
_BIG_TEXT = json.dumps(_BIG)
HUGE_VALUE_CASES = [
    (["barcode", "@"], json.dumps({"bars": [dict(GOOD_BAR, lo={"v": {"pi": _BIG}, "closed": True})]})),
    (["barcode", "@"], json.dumps({"bars": [dict(GOOD_BAR, lo={"v": {"q": _BIG}, "closed": True})]})),
    (["barcode", "@"], json.dumps({"bars": [dict(GOOD_BAR, lo={"v": _BIG, "closed": True})]})),
    (["barcode", "@"], json.dumps({"bars": [dict(GOOD_BAR, deg=_BIG)]})),
    (["barcode", "@"], json.dumps({"bars": [dict(GOOD_BAR, lo=_BIG)]})),
    (["barcode", "@"], json.dumps({"bars": [GOOD_BAR], "convention": _BIG})),
    (["domain", "--spec-json", '{"ball":{"n":1,"r":' + _BIG_TEXT + "}}", "--invariant", "1"], None),
    (["domain", "--spec-json", '{"ball":{"n":' + _BIG_TEXT + ',"r":"1"}}', "--invariant", "1"], None),
    (["domain", "--spec-json", '{"ball":' + _BIG_TEXT + "}", "--invariant", "1"], None),
    (["morse", "front", "@"], json.dumps({"xs": [_BIG, "1"], "t_minus": ["0", "0"], "t_plus": ["1", "1"]})),
    (["morse", "sublevel", "@"], json.dumps({"values": [_BIG, 0, 1], "simplices": [[0, 1, 2]]})),
    (["morse", "sublevel", "@"], "3 1\n0 1 2\n" + " ".join(["5"] * 5000) + "\n"),
    (["barcode", "@"], _one_bar("1e400", True, "0", False)),
    (["ops", "convolve", "@", "@"], _one_bar("1e400", False, "2e400", True)),
]


@pytest.mark.parametrize(
    "argv, text",
    HUGE_VALUE_CASES,
    ids=[
        "pi-endpoint-list", "symbolic-endpoint-object", "endpoint-value-list", "deg-list", "bar-end-list",
        "convention-list", "spec-json-r-list", "spec-json-n-list", "spec-json-ball-list", "front-value-list",
        "complex-value-list", "complex-simplex-line", "empty-interval-400-digit-end", "convolve-400-digit-bar",
    ],
)
def test_huge_value_message_is_one_short_line(tmp_path, capsys, argv, text):
    # a 5,000-element JSON list in a bad spot is quoted only in part
    if text is not None:
        path = tmp_path / "in"
        path.write_text(text)
        argv = [str(path) if a == "@" else a for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, err[:300]


def test_messages_quoting_a_bar_survive_the_digit_limit():
    # each message quotes an interval whose ends have 5,001 digits, past
    # what str() of an int will write
    big = sc.interval("1e5000", "2e5000", False, True)
    tam, left = sc.barcode(sc.bar(0, 1)), sc.barcode(sc.GradedBar(sc.interval("-inf", "1e5000", False)))
    calls = [
        (lambda: sc.interval("1e5000", 0), ValidationError),
        (lambda: sc.convolve(tam, sc.barcode(sc.GradedBar(big))), TamarkinClassError),
        (lambda: sc.convolve_np(left, left), ConvolutionTypeError),
        (lambda: sc.rhom_total(tam, sc.barcode(sc.GradedBar(big))), ValidationError),
        (lambda: sc.adjoint(sc.barcode(sc.GradedBar(big))), TamarkinClassError),
    ]
    for call, error in calls:
        with pytest.raises(error) as info:
            call()
        assert len(str(info.value)) < 200 and "4300-digit limit" in str(info.value)


def test_output_file_gets_stdout_bytes_and_dash_reads_stdin(tmp_path, capsys, monkeypatch):
    text = json.dumps({"bars": [GOOD_BAR, dict(GOOD_BAR, deg=1)]})
    path = tmp_path / "in.json"
    path.write_text(text)
    code, expect, _ = run_cli(["barcode", str(path)], capsys)
    assert code == 0 and expect
    out = tmp_path / "out.json"
    code, stdout, err = run_cli(["barcode", str(path), "-o", str(out)], capsys)
    assert code == 0 and stdout == err == ""
    assert out.read_bytes() == expect.encode()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run_cli(["barcode", "-"], capsys) == (0, expect, "")


def test_bad_endpoint_message_is_short():
    with pytest.raises(ValidationError) as info:
        sc.Endpoint(_BIG, True)
    assert len(str(info.value)) < 200 and "characters" in str(info.value)


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"values": [0] * 40, "simplices": [list(range(40))]}),
        "40 1\n" + " ".join(["0"] * 40) + "\n40 " + " ".join(map(str, range(40))) + "\n",
    ],
    ids=["json", "off"],
)
def test_huge_simplex_refused_at_once(tmp_path, capsys, text):
    # listing the 2^40 faces first would never finish
    path = tmp_path / "in"
    path.write_text(text)
    start = time.perf_counter()
    code, out, err = run_cli(["morse", "sublevel", str(path)], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _shift_t(tmp_path, capsys, lo, c):
    bar = {"lo": {"v": str(lo), "closed": True}, "hi": {"v": "+inf", "closed": False}, "deg": 0, "mult": 1}
    path = tmp_path / "bar.json"
    path.write_text(json.dumps({"bars": [bar]}))
    return run_cli(["ops", "shift-t", str(path), "--c", str(c)], capsys)


def test_result_past_int_digit_limit_exits_3(tmp_path, capsys):
    # each input has 3,000 digits; the sum's denominator has 6,000, past
    # the 4,300 digits str() of an int will write
    code, out, err = _shift_t(tmp_path, capsys, F(1, int("7" * 3000)), F(1, int("3" * 2999 + "1")))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "6000-digit" in err and len(err) < 200


@pytest.mark.parametrize(
    "op, what",
    [("convolve", "degree or multiplicity"), ("rhom-total", "integer")],
    ids=["convolve-mult", "rhom-total-dim"],
)
def test_output_integer_past_int_digit_limit_exits_3(tmp_path, capsys, op, what):
    # one bar [0,2) of multiplicity 10^4000: the product's multiplicity, or
    # the total dim, has 8,001 digits, past the 4,300 str() of an int writes
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"bars": [dict(GOOD_BAR, mult=10**4000)]}))
    code, out, err = run_cli(["ops", op, str(path), str(path)], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"8001-digit {what}" in err and len(err) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ["nonsqueeze", "--n", "2", "--r1", "1" + "0" * 2200, "--r2", "1", "--R", "1" + "0" * 2201],
        ["domain", "ball", "--n", "1", "--r", "1", "--invariant", "1e4400pi"],
    ],
    ids=["nonsqueeze-trace", "invariant-degree"],
)
def test_domain_output_past_int_digit_limit_exits_3(capsys, argv):
    # T = pi (r1^2 + 1)/2 and the degrees near it have 4,400 digits
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "4401-digit" in err


@pytest.mark.parametrize(
    "argv, key, want",
    [
        (["nonsqueeze", "--n", "2", "--r1", "100", "--r2", "1", "--R", "101"], "ellipsoid_invariant", {"dims": {"10000": 1}}),
        (["nonsqueeze", "--n", "2", "--r1", "1000", "--r2", "1", "--R", "1001"], "ellipsoid_invariant", {"dims": {"1000000": 1}}),
        (["domain", "ball", "--n", "2", "--r", "1", "--invariant", "1000000pi"], "dims", {"4000000": 1}),
        (["domain", "ball", "--n", "2", "--r", "1", "--transfer", "1/2", "1000000pi"], "transfer_is_iso", False),
    ],
    ids=["nonsqueeze-100", "nonsqueeze-1000", "invariant", "transfer"],
)
def test_large_levels_answer_at_once(capsys, argv, key, want):
    # a million action bins below the level; none of them is visited
    start = time.perf_counter()
    code, out, _ = run_cli(argv, capsys)
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out)[key] == want


def test_long_result_prints_exactly(tmp_path, capsys):
    lo, c = F(1, int("7" * 1000)), F(1, int("3" * 999 + "1"))
    code, out, _ = _shift_t(tmp_path, capsys, lo, c)
    assert code == 0
    v = json.loads(out)["bars"][0]["lo"]["v"]
    assert v == str(lo + c) and len(v) > 2000


@pytest.mark.parametrize(
    "title, shown",
    [("<x&y>", "<x&y>"), ("a\x01b\x1f\ufffec", "abc"), ("tab\there", "tab\there")],
)
def test_plot_title_is_escaped(tmp_path, capsys, title, shown):
    from xml.etree import ElementTree

    a = write_barcode(tmp_path, "a.json", sc.barcode(sc.bar(0, 2)))
    code, svg, _ = run_cli(["plot", a, "--title", title], capsys)
    assert code == 0
    texts = [t.text for t in ElementTree.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert shown in texts


def test_exit_code_domain_error(capsys):
    code, _, err = run_cli(
        ["domain", "ball", "--n", "1", "--r", "1", "--eigen", "3141592653589793/1000000000000000", "--M", "16"],
        capsys,
    )
    assert code == 3 and "error:" in err


def test_field_env_var(tmp_path, capsys, monkeypatch):
    complex_file = tmp_path / "c.txt"
    complex_file.write_text("3 3\n0 1 2\n2 0 1\n2 1 2\n2 0 2\n")
    monkeypatch.setenv("SHEAFCALC_FIELD", "5")
    code, out, _ = run_cli(["morse", "sublevel", str(complex_file)], capsys)
    assert code == 0


def _cli_subprocess(argv, seconds):
    """Run the CLI in a fresh process, failing (not hanging) past `seconds`."""
    return subprocess.run(
        [sys.executable, "-m", "sheafcalc.cli", *argv], capture_output=True, text=True, timeout=seconds
    )


def test_mpmath_loads_only_for_eigen_counts(tmp_path):
    a = write_barcode(tmp_path, "a.json", sc.barcode(sc.bar(0, 2), sc.bar(1, "+inf")))
    cx = tmp_path / "k.off"
    cx.write_text("3 1\n0 1 2\n3 0 1 2\n")
    probe = "import sys; from sheafcalc.cli import main; main(sys.argv[1:]); print('mpmath' in sys.modules)"
    for argv, loaded in [
        (["ops", "convolve", a, a], False),
        (["dist", a, a], False),
        (["morse", "sublevel", str(cx)], False),
        (["domain", "ball", "--n", "1", "--r", "1", "--eigen", "7", "--M", "8"], True),
    ]:
        proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True, timeout=20)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.splitlines()[-1] == str(loaded), argv


def test_huge_stalk_level_answers_exactly():
    # 1e60 / pi has 60 digits: the first guess of the action bin must be
    # exact to a step or two, or the exact correction steps by one for ages
    import mpmath

    proc = _cli_subprocess(["domain", "ball", "--n", "1", "--r", "1", "--stalk", "1e60"], 20)
    with mpmath.workdps(120):
        m = int(mpmath.floor(mpmath.mpf(10) ** 60 / mpmath.pi))
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout) == {"dims": {str(2 * m + 1): 1}}


def test_stalk_level_beyond_pi_enclosure_exits_3():
    # the pi enclosure is too wide to pick the bin: a domain error with one
    # short line, not a traceback (1e5000 has more digits than str() of an
    # int will print, so the message must not spell the value out)
    for level in ("1e400", "1e5000"):
        proc = _cli_subprocess(["domain", "ball", "--n", "1", "--r", "1", "--stalk", level], 20)
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("error: cannot separate") and proc.stderr.count("\n") == 1
        assert len(proc.stderr) < 200


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sheafcalc.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "sheafcalc" in proc.stdout


@pytest.mark.parametrize("fmt", ["svg", "text"])
def test_plot_label_past_int_digit_limit_exits_3(tmp_path, capsys, fmt):
    # 1e-5000 has a 5,001-digit denominator, which no label can print
    path = tmp_path / "in.json"
    path.write_text(_one_bar("1e-5000", True, "1", False))
    code, out, err = run_cli(["plot", str(path), "--format", fmt], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "5001-digit" in err
