"""Batch command-line front end.

Exit codes: 0 success, 2 input validation failure, 3 domain error (for
example a filtration level inside the eigenvalue exclusion band).  JSON
output is canonical (sorted keys, fixed separators) so identical inputs
produce byte-identical results.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import metrics, morse, ops
from .domains import (
    Ball,
    Ellipsoid,
    ScaledBall,
    domain_barcode,
    domain_from_json,
    domain_stalk,
    eigen_count,
    inclusion_cone_rank,
    nonsqueeze_check,
    sheaf_invariant,
    transfer_is_iso,
)
from .errors import DomainError, ValidationError
from .exactnum import _excerpt, _json_rational, long_int_error, parse_rational, parse_scalar, scalar_to_json
from .intervals import (
    GradedBarcode,
    HomSpace,
    barcode_from_json,
    barcode_json_text,
    barcode_to_json,  # re-exported: the benchmark's traced run wraps cli.barcode_to_json
    convert_convention,
    ray_sections,
    spec,
    stalk,
)
from .plot import svg_barcode, text_barcode

FIELD_ENV = "SHEAFCALC_FIELD"

# a negative scalar (-1/2, -1e-3, -pi, -inf) after a subcommand's option is its
# value, not a flag; argparse's own pattern takes only the -1 and -1.5 forms
_NEGATIVE_SCALAR = re.compile(r"-(\d|\.\d|pi|inf)")


def _dump(obj) -> str:
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    except ValueError:
        # an integer past the int-to-string digit limit, such as a HomSpace dim
        raise long_int_error(_ints(obj)) from None


def _ints(obj):
    """Every integer in a JSON-ready value, bools left out."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        for v in obj:
            yield from _ints(v)
    elif isinstance(obj, int) and not isinstance(obj, bool):
        yield obj


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc


def _loads(text: str, where: str):
    # ValueError covers syntax errors and integers past Python's digit
    # limit; RecursionError, arrays or objects nested too deeply
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{where}: invalid JSON ({exc})") from exc


def _read_barcode(path: str) -> GradedBarcode:
    return barcode_from_json(_loads(_read_text(path), path))


def _emit(args, chunks: tuple[str, str]) -> None:
    # one write per chunk: joining the text and its line end would copy the text
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _render(args, result, title: str) -> tuple[str, str]:
    """(text, line end) of a barcode in its --format, or of any other result
    as canonical JSON; the SVG and text forms end in their own newline."""
    if isinstance(result, GradedBarcode):
        if args.format == "svg":
            return svg_barcode(result, title), ""
        if args.format == "text":
            return text_barcode(result), ""
        return barcode_json_text(result), "\n"
    if isinstance(result, HomSpace):
        result = result.to_json()
    return _dump(result), "\n"


def _field(args) -> int:
    if args.field is not None:
        return args.field
    env = os.environ.get(FIELD_ENV)
    if not env:
        return 2
    try:
        return int(env)
    except ValueError as exc:
        raise ValidationError(f"${FIELD_ENV} must be an integer, got {env!r}") from exc


# -- subcommand handlers ------------------------------------------------------
# Each returns its result: a barcode (with its SVG title where it has one), a
# HomSpace or a JSON-ready dict; `main` renders and writes it.


def _cmd_barcode(args):
    b = _read_barcode(args.input)
    if args.stalk is not None:
        return stalk(b, parse_scalar(args.stalk))
    if args.sections is not None:
        return ray_sections(b, parse_scalar(args.sections))
    if args.spectrum:
        return {"spec": [scalar_to_json(v) for v in spec(b)]}
    if args.convention:
        return convert_convention(b, args.convention)
    return b


def _cmd_ops(args):
    a = _read_barcode(args.a)
    # looked up at call time, so a wrapper installed on `ops` is seen
    fn = getattr(ops, args.op.replace("-", "_"))
    if args.op in ("torsion", "capacity", "capacity-prime"):
        return {args.op: scalar_to_json(fn(a))}
    if args.op == "adjoint":
        return fn(a)
    if args.op in ("shift-t", "tau-rank"):
        if args.c is None:
            raise ValidationError(f"{args.op} needs --c")
        return fn(a, parse_scalar(args.c))
    if args.op == "shift-deg":
        if args.k is None:
            raise ValidationError("shift-deg needs --k")
        return fn(a, args.k)
    if args.b is None:
        raise ValidationError(f"{args.op} needs a second barcode")
    return fn(a, _read_barcode(args.b))


def _cmd_dist(args):
    if args.b is None:
        # combined {"b1": ..., "b2": ...} wire format
        obj = _loads(_read_text(args.a), args.a)
        try:
            b1 = barcode_from_json(obj["b1"])
            b2 = barcode_from_json(obj["b2"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"{args.a}: expected {{'b1':…,'b2':…}} ({exc})") from exc
    else:
        b1 = _read_barcode(args.a)
        b2 = _read_barcode(args.b)
    if args.delta is not None:
        ok, witness = metrics.delta_matched(b1, b2, parse_scalar(args.delta))
        payload = {"delta_matched": ok}
    else:
        d, witness = metrics.bottleneck_matching(b1, b2)
        payload = {"bottleneck": scalar_to_json(d)}
    if witness is not None:
        payload["witness"] = {
            "delta": scalar_to_json(witness.delta),
            "pairs": [list(p) for p in witness.pairs],
            "erased_left": list(witness.erased_left),
            "erased_right": list(witness.erased_right),
        }
    return payload


def _parse_complex(text: str):
    text = text.strip()
    if text.startswith("{"):
        obj = _loads(text, "complex file")
        try:
            values = [_json_rational(v, "values") for v in obj["values"]]
            simplices = list(obj["simplices"])  # the SimplicialComplex constructor checks each one
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValidationError("complex JSON needs 'values' and 'simplices'") from exc
        K = morse.SimplicialComplex.from_maximal(len(values), simplices)
        return K, morse.VertexFunction(tuple(values))
    lines = [ln.split("#")[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    try:
        nv, ns = (int(x) for x in lines[0].split())
        values = [parse_rational(x) for x in lines[1].split()]
        if len(values) != nv:
            raise ValidationError(f"expected {nv} vertex values")
        if len(lines) - 2 != ns:
            raise ValidationError(f"header declares {_excerpt(ns)} simplices, the file gives {len(lines) - 2}")
        maximal = []
        for ln in lines[2:]:
            parts = [int(x) for x in ln.split()]
            if parts[0] != len(parts) - 1:
                raise ValidationError(f"bad simplex line {_excerpt(ln)}")
            maximal.append(tuple(parts[1:]))
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        raise ValidationError(f"malformed complex file: {exc}") from exc
    K = morse.SimplicialComplex.from_maximal(nv, maximal)
    return K, morse.VertexFunction(tuple(values))


def _cmd_morse(args):
    if args.capacity and args.route != "front":
        raise ValidationError("--capacity needs the front route")
    if args.two_critical_bound and args.route == "front":
        raise ValidationError("--two-critical-bound needs a sublevel, superlevel or sheaf route")
    p = _field(args)
    if args.route == "front":
        obj = _loads(_read_text(args.input), args.input)
        try:
            front = morse.FrontRegion(
                *(tuple(_json_rational(v, k) for v in obj[k]) for k in ("xs", "t_minus", "t_plus"))
            )
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValidationError("front JSON needs 'xs', 't_minus' and 't_plus' lists of rationals") from exc
        if args.capacity:
            return {"front_capacity": scalar_to_json(morse.front_capacity(front))}
        return morse.front_hom_star(front, p)
    K, f = _parse_complex(_read_text(args.input))
    routes = {
        "sublevel": morse.sublevel_barcode,
        "superlevel": morse.superlevel_barcode,
        "sheaf": morse.sheaf_route_barcode,
    }
    b = routes[args.route](K, f, p)
    if args.two_critical_bound:
        return {"c0_two_critical_bound": scalar_to_json(morse.c0_two_critical_bound(b))}
    return b, f"{args.route} barcode"


# the positional kind names, for the SVG title of a --spec-json domain too
_KINDS = {Ball: "ball", Ellipsoid: "ellipsoid", ScaledBall: "scaled-ball"}


def _parse_domain(args):
    if args.spec_json is not None:
        if (args.domain, args.n, args.r, args.R) != (None,) * 4:
            raise ValidationError("--spec-json replaces the domain kind, --n, --r and --R; give one form")
        return domain_from_json(_loads(args.spec_json, "--spec-json"))
    if args.domain is None:
        raise ValidationError("need a domain kind or --spec-json")
    if args.n is None or args.r is None:
        raise ValidationError("need --n and --r")
    if args.domain == "ball":
        return Ball(args.n, parse_rational(args.r))
    if args.domain == "ellipsoid":
        if args.R is None:
            raise ValidationError("ellipsoid needs --R")
        return Ellipsoid(args.n, parse_rational(args.r), parse_rational(args.R))
    # scaled-ball, the last kind argparse allows
    if args.c is None:
        raise ValidationError("scaled-ball needs --c")
    return ScaledBall(parse_rational(args.c), Ball(args.n, parse_rational(args.r)))


def _cmd_domain(args):
    d = _parse_domain(args)
    if args.stalk is not None:
        return domain_stalk(d, parse_scalar(args.stalk))
    if args.invariant is not None:
        return sheaf_invariant(d, parse_scalar(args.invariant))
    if args.transfer is not None:
        t1, t2 = (parse_scalar(x) for x in args.transfer)
        return {"transfer_is_iso": transfer_is_iso(d, t1, t2)}
    if args.eigen is not None:
        if not isinstance(d, Ball):
            raise ValidationError("eigen counts are defined for plain balls")
        return {"eigen_count": eigen_count(parse_rational(args.eigen), d.r, args.M)}
    if args.cone is not None:
        if not isinstance(d, Ball) or args.c is None:
            raise ValidationError("mapping-cone ranks need a ball plus --c")
        return inclusion_cone_rank(d.r, parse_rational(args.c), parse_rational(args.cone), d.n, args.M)
    if args.tmax is None:
        raise ValidationError("domain barcode needs --tmax")
    return domain_barcode(d, parse_scalar(args.tmax)), f"{_KINDS[type(d)]} barcode"


def _cmd_nonsqueeze(args):
    v = nonsqueeze_check(args.n, parse_rational(args.r1), parse_rational(args.r2), parse_rational(args.R))
    payload = {"obstructed": v.obstructed, "verdict": v.verdict, "trace": list(v.trace)}
    if v.chosen_T is not None:
        payload["T"] = scalar_to_json(v.chosen_T)
        payload["ball_invariant"] = v.ball_invariant.to_json()
        payload["ellipsoid_invariant"] = v.ellipsoid_invariant.to_json()
    return payload


def _cmd_plot(args):
    return _read_barcode(args.input), args.title


class _Parser(argparse.ArgumentParser):
    """Refuses a malformed command line in one line, not argparse's usage block."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


@functools.cache  # one parser shared per process: building it costs about as much as a small job
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="sheafcalc",
        description="Exact barcode calculus for constructible sheaves on the line",
    )
    ap.add_argument("--field", "-p", type=int, default=None, help=f"field characteristic (default: ${FIELD_ENV} or 2)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("json", "svg", "text"), default="json")
        sp.add_argument("--output", "-o", default=None)
        sp._negative_number_matcher = _NEGATIVE_SCALAR  # not on the top level, whose -p is a flag

    sp = sub.add_parser("barcode", help="canonicalize / query a barcode")
    sp.add_argument("input")
    query = sp.add_mutually_exclusive_group()  # one query per call: a second would be ignored
    query.add_argument("--stalk", default=None, metavar="T")
    query.add_argument("--sections", default=None, metavar="C")
    query.add_argument("--spec", dest="spectrum", action="store_true")
    query.add_argument("--convention", choices=("left-closed", "right-closed"), default=None)
    common(sp)
    sp.set_defaults(func=_cmd_barcode)

    sp = sub.add_parser("ops", help="Tamarkin operations on barcodes")
    sp.add_argument(
        "op",
        choices=(
            "convolve", "convolve-np", "hom-star", "adjoint", "rhom-total",
            "rhom-sheaf", "shift-t", "shift-deg", "torsion", "tau-rank",
            "capacity", "capacity-prime",
        ),
    )
    sp.add_argument("a")
    sp.add_argument("b", nargs="?", default=None)
    sp.add_argument("--c", default=None, help="scalar parameter (shift-t, tau-rank)")
    sp.add_argument("--k", type=int, default=None, help="degree shift (shift-deg)")
    common(sp)
    sp.set_defaults(func=_cmd_ops)

    sp = sub.add_parser("dist", help="bottleneck / interleaving distance")
    sp.add_argument("a", help="barcode file, or combined {'b1':…,'b2':…} file")
    sp.add_argument("b", nargs="?", default=None)
    sp.add_argument("--delta", default=None, help="test delta-matching instead")
    common(sp)
    sp.set_defaults(func=_cmd_dist)

    sp = sub.add_parser("morse", help="barcodes of filtered complexes and fronts")
    sp.add_argument("route", choices=("sublevel", "superlevel", "sheaf", "front"))
    sp.add_argument("input")
    sp.add_argument("--two-critical-bound", action="store_true")
    sp.add_argument("--capacity", action="store_true", help="front capacity")
    common(sp)
    sp.set_defaults(func=_cmd_morse)

    sp = sub.add_parser("domain", help="ball/ellipsoid invariants")
    sp.add_argument("domain", nargs="?", choices=("ball", "ellipsoid", "scaled-ball"))
    sp.add_argument("--spec-json", default=None, help='e.g. {"ball":{"n":2,"r":"1"}}')
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--r", default=None)
    sp.add_argument("--R", default=None)
    sp.add_argument("--c", default=None)  # the scaled ball's and --cone's, so in no query group
    query = sp.add_mutually_exclusive_group()
    query.add_argument("--tmax", default=None, help="barcode cutoff, e.g. 3pi")
    query.add_argument("--stalk", default=None, metavar="T")
    query.add_argument("--invariant", default=None, metavar="T")
    query.add_argument("--transfer", nargs=2, default=None, metavar=("T1", "T2"))
    query.add_argument("--eigen", default=None, metavar="T")
    query.add_argument("--cone", default=None, metavar="T", help="rescaling mapping-cone rank (with --c)")
    sp.add_argument("--M", type=int, default=16)
    common(sp)
    sp.set_defaults(func=_cmd_domain)

    sp = sub.add_parser("nonsqueeze", help="ball-into-cylinder obstruction check")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r1", required=True)
    sp.add_argument("--r2", required=True)
    sp.add_argument("--R", required=True)
    common(sp)
    sp.set_defaults(func=_cmd_nonsqueeze)

    sp = sub.add_parser("plot", help="render a barcode file")
    sp.add_argument("input")
    sp.add_argument("--title", default="")
    sp.add_argument("--format", choices=("svg", "text"), default="svg")
    sp.add_argument("--output", "-o", default=None)
    sp.set_defaults(func=_cmd_plot)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        result = args.func(args)
        result, title = result if isinstance(result, tuple) else (result, "")
        _emit(args, _render(args, result, title))
    except (ValidationError, OSError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, DomainError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
