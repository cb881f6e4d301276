"""Seeded CLI fuzz: every argv list ends in exit 0, or in exit 2 or 3 with a
one-line message, never a traceback.

`cli.main` catches only ValidationError, OSError and DomainError, so any
other exception type escaping a subcommand shows up here first.  Inputs are
small valid files (barcodes, closed surfaces for `morse sheaf`, fronts),
randomly edited copies of them, and argument values drawn from a pool of
scalars, junk and extreme literals.  Each case runs in-process under a
SIGALRM limit, so a hang fails the test instead of stalling the suite.
"""

import contextlib
import io
import json
import random
import signal

import pytest

from sheafcalc.cli import main

CASES = 400
SECONDS_PER_CASE = 5

SCALARS = [
    "0", "1", "-1", "1/2", "-3/4", "7", "pi", "3pi", "-2pi+1/3", "2pi/3", "1e3", "1e-2", "0.5",
    "+inf", "-inf", "nan", "1/0", "", "x", "--", "9" * 40, "1e99999", "0x10", "1_0",
]
PARAMS = ["1", "1/2", "2", "3"]
LEVELS = PARAMS + ["pi", "3pi", "7/2"]
INTS = ["0", "1", "2", "3", "-1", "x", "1.5", "20001", "9" * 30]
FIELDS = ["2", "3", "5", "4", "1", "0", "-3", "2147483647", "x"]
EDIT_CHARS = '0123456789{}[],:"-./e pi\n'


def barcode_text(rng):
    bars = []
    for _ in range(rng.randint(0, 4)):
        lo = rng.randint(-3, 3)
        hi = rng.choice([str(lo + rng.randint(1, 4)), "+inf"])
        bars.append({"lo": {"v": str(lo), "closed": True}, "hi": {"v": hi, "closed": False},
                     "deg": rng.randint(0, 2), "mult": rng.randint(1, 2)})
    return json.dumps({"bars": bars})


def torus_text(rng):
    """An n x n grid torus in the text complex format, n = 3 to 5, with
    small values."""
    n = rng.randint(3, 5)
    tris = []
    for i in range(n):
        for j in range(n):
            v, r = i * n + j, i * n + (j + 1) % n
            d, dr = ((i + 1) % n) * n + j, ((i + 1) % n) * n + (j + 1) % n
            tris += [(v, d, dr), (v, r, dr)]
    values = " ".join(str(rng.randint(-3, 3)) for _ in range(n * n))
    return f"{n * n} {len(tris)}\n{values}\n" + "".join(f"3 {a} {b} {c}\n" for a, b, c in tris)


def circle_json(rng):
    n = rng.randint(3, 6)
    return json.dumps({"values": [str(rng.randint(-2, 2)) for _ in range(n)],
                       "simplices": [[i, (i + 1) % n] for i in range(n)]})


def front_text(rng):
    n = rng.randint(1, 4)
    return json.dumps({"xs": [str(i) for i in range(n)],
                       "t_minus": [str(rng.randint(0, 2)) for _ in range(n)],
                       "t_plus": [str(rng.randint(0, 2)) for _ in range(n)]})


def edited(rng, text):
    """text with a few random deletions, insertions and replacements."""
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(chars) + 1)
        op = rng.randrange(3)
        if op == 0 and chars:
            del chars[min(at, len(chars) - 1)]
        elif op == 1:
            chars.insert(at, rng.choice(EDIT_CHARS))
        elif chars:
            chars[min(at, len(chars) - 1)] = rng.choice(EDIT_CHARS)
    return "".join(chars)


def input_file(rng, tmp_path, make):
    text = make(rng)
    if rng.random() < 0.4:
        text = edited(rng, text)
    path = tmp_path / f"in{rng.randrange(10**9)}"
    path.write_text(text)
    return str(path)


def options(rng, pool):
    """Up to two of the (flag, value list, ...) entries of pool, each
    flag followed by one value drawn from each of its lists."""
    out = []
    for flag, *values in rng.sample(pool, rng.randint(0, min(2, len(pool)))):
        out += [flag] + [rng.choice(v) for v in values]
    return out


def value(rng):
    """Mostly a valid domain parameter, sometimes anything from SCALARS."""
    return rng.choice(PARAMS if rng.random() < 0.75 else SCALARS)


def random_argv(rng, tmp_path):
    kind = rng.choice(["barcode", "ops", "dist", "morse", "sheaf", "domain", "nonsqueeze", "plot", "junk"])
    bc = lambda: input_file(rng, tmp_path, barcode_text)  # noqa: E731
    if kind == "barcode":
        argv = ["barcode", bc()] + options(rng, [("--stalk", SCALARS), ("--sections", SCALARS), ("--spec",),
                                                 ("--convention", ["left-closed", "right-closed"]),
                                                 ("--format", ["json", "text", "svg"])])
    elif kind == "ops":
        op = rng.choice(["convolve", "hom-star", "rhom-sheaf", "rhom-total", "adjoint", "torsion",
                         "capacity", "shift-t", "shift-deg", "tau-rank", "nope"])
        argv = ["ops", op, bc()] + ([bc()] if rng.random() < 0.6 else [])
        argv += options(rng, [("--c", SCALARS), ("--k", INTS)])
    elif kind == "dist":
        argv = ["dist", bc(), bc()] + options(rng, [("--delta", SCALARS)])
    elif kind in ("morse", "sheaf"):
        route = "sheaf" if kind == "sheaf" else rng.choice(["sublevel", "superlevel", "sheaf", "front"])
        make = front_text if route == "front" else rng.choice([torus_text, circle_json])
        argv = ["morse", route, input_file(rng, tmp_path, make)]
        argv += options(rng, [("--two-critical-bound",), ("--capacity",), ("--format", ["json", "text"])])
    elif kind == "domain":
        shape = rng.choice(["ball", "ellipsoid", "scaled-ball"])
        argv = ["domain", shape, "--n", rng.choice(["2", "3"] + INTS[:5]), "--r", value(rng)]
        argv += {"ball": [], "ellipsoid": ["--R", value(rng)], "scaled-ball": ["--c", value(rng)]}[shape]
        levels = LEVELS * 3 + SCALARS
        argv += options(rng, [("--stalk", levels), ("--invariant", levels), ("--transfer", levels, levels),
                              ("--tmax", ["3pi", "pi", "x", "0"]), ("--eigen", LEVELS), ("--cone", LEVELS)])
    elif kind == "nonsqueeze":
        argv = ["nonsqueeze"] + [x for flag in ("--n", "--r1", "--r2", "--R")
                                 for x in (flag, rng.choice(INTS[:4]) if flag == "--n" else value(rng))]
    elif kind == "plot":
        argv = ["plot", bc()] + options(rng, [("--title", ["t", "<&>"]), ("--format", ["svg", "text"])])
    else:
        argv = [rng.choice(SCALARS + ["barcode", "ops", "morse", "--format", "--field"]) for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.2:
        argv = ["--field", rng.choice(FIELDS)] + argv
    return argv


class Hang(BaseException):
    """Raised by the alarm; not an OSError (as TimeoutError is), which
    `cli.main` would report as exit 2."""


def _timeout(signum, frame):
    raise Hang


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_cli_fuzz_exits_cleanly(tmp_path, monkeypatch):
    monkeypatch.delenv("SHEAFCALC_FIELD", raising=False)
    rng = random.Random(0xF022)
    codes = []
    previous = signal.signal(signal.SIGALRM, _timeout)
    try:
        for _ in range(CASES):
            argv = random_argv(rng, tmp_path)
            err = io.StringIO()
            signal.alarm(SECONDS_PER_CASE)
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    rc = main(argv)
            except SystemExit as exc:  # --help; a parse error is an exit-2 refusal
                rc = exc.code
            except Hang:
                pytest.fail(f"no answer within {SECONDS_PER_CASE} s: {argv}")
            finally:
                signal.alarm(0)
            assert rc in (0, 2, 3), (argv, err.getvalue())
            assert "Traceback" not in err.getvalue(), argv
            if rc:
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
            codes.append(rc)
    finally:
        signal.signal(signal.SIGALRM, previous)
    # the mix reaches real answers, validation errors and argparse refusals
    assert codes.count(0) > 30 and codes.count(2) > 30
