"""Interval and graded-barcode value types plus their pointwise calculus.

A barcode is a finite multiset of intervals with integer cohomological
degrees ("degree d" = the degree where the one-dimensional stalk sits, so a
shift [n] lowers the degree field by n).  Everything here is immutable and
exact.  `Endpoint`, `Interval` and `GradedBar` are namedtuples, equal to,
hashed and ordered as the tuple of their fields; `__new__` checks, and a
maker whose ends are ordered skips that through `tuple.__new__` (as
`Interval._ordered` does).  Canonical form is sorted-and-merged; equality
is canonical multiset equality; a canonical barcode is marked so
(`canonical_barcode`) and never sorted again.  `scaled_ends`, the one endpoint-scaling helper, holds every
finite end as an integer over their common denominator when all are
Fractions and it has at most MAX_SCALE_BITS bits: the canonical sort, the
ops kernel, `rhom_total` and the bottleneck cost tables compute on those.
`barcode_json_text` is the one encoder of a barcode as JSON: the CLI prints
its text, and `barcode_to_json` is that text read back.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Tuple

from .errors import ConventionError, TamarkinClassError, ValidationError
from .exactnum import (
    Extended,
    Infinity,
    PiRational,
    Scalar,
    _excerpt,
    exact_str,
    is_finite,
    long_int_error,
    scalar_from_json,
    scalar_to_json,
)

LEFT_CLOSED = "left-closed"
RIGHT_CLOSED = "right-closed"
MIXED = "mixed"
# the bar kinds that `flavor` names apart from their family
SINGLETON, TAMARKIN, LEFT_INFINITE = "singleton", "tamarkin", "left-infinite"


class Endpoint(namedtuple("Endpoint", "value closed")):
    __slots__ = ()

    def __new__(cls, value: Extended, closed: bool):
        if isinstance(value, Infinity) and closed:
            raise ValidationError("infinite endpoints are always open")
        if isinstance(value, int):
            value = Fraction(value)
        elif not isinstance(value, (Fraction, PiRational, Infinity)):
            raise ValidationError(f"bad endpoint value {_excerpt(value)}")
        return tuple.__new__(cls, (value, closed))

    @property
    def finite(self) -> bool:
        return is_finite(self.value)


def ep(value, closed: bool = True) -> Endpoint:
    if isinstance(value, str):
        from .exactnum import parse_scalar

        value = parse_scalar(value)
    if isinstance(value, Infinity):
        return Endpoint(value, False)
    return Endpoint(value, closed)


class Interval(namedtuple("Interval", "lo hi")):
    """A nonempty interval of the real line.

    Canonical form admits the four bounded flavors, half-lines, the full
    line, and the singleton {a} (both endpoints closed and equal).
    """

    __slots__ = ()

    def __new__(cls, lo: Endpoint, hi: Endpoint):
        lv, hv = lo.value, hi.value
        # lo == hi only for the both-closed singleton; a second compare names the fault
        if not (lv <= hv if lo.closed and hi.closed else lv < hv):
            if lv > hv:
                raise ValidationError(f"empty interval: lo {_excerpt(lv, str)} > hi {_excerpt(hv, str)}")
            raise ValidationError("degenerate interval must be the both-closed singleton")
        return tuple.__new__(cls, (lo, hi))

    @classmethod
    def _ordered(cls, lo: Endpoint, hi: Endpoint) -> "Interval":
        """The interval of ends its maker has already ordered: no check."""
        return tuple.__new__(cls, (lo, hi))

    # -- queries ----------------------------------------------------------

    def contains(self, t: Extended) -> bool:
        lo, hi = self.lo, self.hi
        return (lo.value <= t if lo.closed else lo.value < t) and (t <= hi.value if hi.closed else t < hi.value)

    @property
    def is_singleton(self) -> bool:
        return self.lo.value == self.hi.value

    @property
    def length(self) -> Extended:
        return self.hi.value - self.lo.value

    # -- constructions ----------------------------------------------------

    def shift(self, c: Scalar) -> "Interval":
        return Interval(
            Endpoint(self.lo.value + c, self.lo.closed),
            Endpoint(self.hi.value + c, self.hi.closed),
        )

    def reflect(self) -> "Interval":
        """Image under t -> -t (endpoint types travel with the endpoints)."""
        return Interval(
            Endpoint(-self.hi.value, self.hi.closed),
            Endpoint(-self.lo.value, self.lo.closed),
        )

    def reflect_swap(self) -> "Interval":
        """Reflect and flip both finite closure flags: [a,b) -> [-b,-a).

        This is the interval part of the adjoint-sheaf operation and of the
        [-,-)-type completion of reflected barcodes.
        """
        r = self.reflect()
        return Interval(
            Endpoint(r.lo.value, (not r.lo.closed) if r.lo.finite else False),
            Endpoint(r.hi.value, (not r.hi.closed) if r.hi.finite else False),
        )

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        # the later left end and the earlier right end, the open one at
        # equal values; on a full tie self's endpoint is kept
        lo = max(self.lo, other.lo, key=lambda e: (e.value, not e.closed))
        hi = min(self.hi, other.hi, key=lambda e: (e.value, e.closed))
        if lo.value < hi.value or (lo.value == hi.value and lo.closed and hi.closed):
            return Interval(lo, hi)
        return None

    def __str__(self):
        lb = "[" if self.lo.closed else "("
        rb = "]" if self.hi.closed else ")"
        if self.is_singleton:
            return f"{{{self.lo.value}}}"
        return f"{lb}{self.lo.value},{self.hi.value}{rb}"


def flavor(i: Interval) -> str:
    """SINGLETON, TAMARKIN ([a,b), [a,oo)), LEFT_INFINITE ((-oo,b)), or the
    family of any other bar: LEFT_CLOSED (-oo,oo), RIGHT_CLOSED (a,b], (-oo,b],
    (a,oo), MIXED [a,b], (a,b).  Read off the closure flags: an infinite end
    is open, and only a both-closed bar may have lo == hi and needs a compare."""
    lo, hi = i.lo, i.hi
    if lo.closed:
        if not hi.closed:
            return TAMARKIN
        return SINGLETON if lo.value == hi.value else MIXED
    if hi.closed:
        return RIGHT_CLOSED
    if lo.finite:
        return MIXED if hi.finite else RIGHT_CLOSED
    return LEFT_INFINITE if hi.finite else LEFT_CLOSED


def interval(lo, hi, lo_closed: bool = True, hi_closed: bool = False) -> Interval:
    return Interval(ep(lo, lo_closed), ep(hi, hi_closed))


def singleton(a) -> Interval:
    return Interval(ep(a, True), ep(a, True))


class GradedBar(namedtuple("GradedBar", "interval degree mult")):
    __slots__ = ()

    def __new__(cls, interval: Interval, degree: int = 0, mult: int = 1):
        if mult < 1:
            raise ValidationError("bar multiplicity must be >= 1")
        return tuple.__new__(cls, (interval, degree, mult))


@dataclass(frozen=True)
class GradedBarcode:
    bars: Tuple[GradedBar, ...] = field(default_factory=tuple)
    # set only by `canonical_barcode`; not a field, so never a constructor argument
    _canonical = False

    def __post_init__(self):
        object.__setattr__(self, "bars", tuple(self.bars))

    # -- canonical form ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GradedBarcode):
            return NotImplemented
        return canonicalize(self).bars == canonicalize(other).bars

    def __hash__(self):
        return hash(canonicalize(self).bars)

    @property
    def convention(self) -> str:
        """The one family of the bars' `flavor`s, MIXED for two: [a,b), [a,oo)
        and (-oo,b) bars are left-closed and singletons flavor-neutral; an
        empty barcode reports the left-closed default.  A half-open bar's family
        is its flags', so `flavor` runs only where both ends are closed or both open."""
        pairs = {(x.interval.lo.closed, x.interval.hi.closed) for x in self.bars}
        tags = {LEFT_CLOSED if lo else RIGHT_CLOSED for lo, hi in pairs if lo != hi}
        if len(tags) < 2 and len(pairs) > len(tags):  # a both-closed or both-open bar, and not MIXED yet
            kinds = {flavor(x.interval) for x in self.bars if x.interval.lo.closed == x.interval.hi.closed}
            tags |= {LEFT_CLOSED if k in (TAMARKIN, LEFT_INFINITE) else k for k in kinds - {SINGLETON}}
        if not tags:
            return LEFT_CLOSED
        return tags.pop() if len(tags) == 1 else MIXED

    def total_mult(self) -> int:
        return sum(b.mult for b in self.bars)

    def __str__(self):
        if not self.bars:
            return "0"
        parts = []
        for b in canonicalize(self).bars:
            s = f"k_{b.interval}"
            if b.degree:
                s += f"[{-b.degree}]"
            if b.mult > 1:
                s += f"^{b.mult}"
            parts.append(s)
        return " + ".join(parts)


def barcode(*bars: GradedBar) -> GradedBarcode:
    return canonicalize(GradedBarcode(tuple(bars)))


def bar(lo, hi, degree: int = 0, mult: int = 1, lo_closed=True, hi_closed=False) -> GradedBar:
    return GradedBar(interval(lo, hi, lo_closed, hi_closed), degree, mult)


EMPTY = GradedBarcode(())


# the lcm grows with every distinct denominator, so N ends over N distinct
# b-bit denominators would make a scale, and every scaled end, of about
# N*b bits; past this size `scaled_ends` keeps the values as they are
MAX_SCALE_BITS = 1024


def scaled_ends(intervals: Iterable[Interval]) -> Tuple[list[tuple], Optional[int]]:
    """Each interval as (lo, lo_closed, hi, hi_closed), on integers when it can.

    When every finite end is a Fraction and the lcm of their denominators
    has at most MAX_SCALE_BITS bits, scale is that lcm and each finite end
    x is held as the integer x * scale; the infinities stay as they are, so
    order, equality and sums are those of the values.  Otherwise (some end
    is a PiRational, or the lcm is larger) scale is None and the values
    stay as they are: the same code then runs on exact scalars.
    """
    rows = [(i.lo.value, i.lo.closed, i.hi.value, i.hi.closed) for i in intervals]
    dens = set()
    for lo, _, hi, _ in rows:
        for v in (lo, hi):
            if type(v) is Fraction:
                dens.add(v.denominator)
            elif not isinstance(v, Infinity):
                return rows, None
    scale = 1
    for d in dens:
        scale = scale * d // math.gcd(scale, d)
        if scale.bit_length() > MAX_SCALE_BITS:
            return rows, None
    factor = {d: scale // d for d in dens}

    def held(v):
        return v if type(v) is not Fraction else v.numerator * factor[v.denominator]

    return [(held(lo), lc, held(hi), hc) for lo, lc, hi, hc in rows], scale


def canonical_barcode(bars: Iterable[GradedBar]) -> GradedBarcode:
    """The barcode of bars already sorted and merged, marked canonical."""
    out = GradedBarcode(tuple(bars))
    object.__setattr__(out, "_canonical", True)
    return out


def canonicalize(b: GradedBarcode) -> GradedBarcode:
    """Sort by (degree, lo, hi) and merge equal bars into multiplicity; a
    merged bar keeps the interval of the last bar of its (stable) run.

    At equal values a closed left end sorts first, an open right end first.
    The sort runs on the `scaled_ends` values, integers when every finite
    end is a Fraction.  The result is marked canonical, and a marked
    barcode is returned as it is."""
    if b._canonical:
        return b
    ends, _ = scaled_ends(x.interval for x in b.bars)
    keys = [(x.degree, lo, not lc, hi, hc) for x, (lo, lc, hi, hc) in zip(b.bars, ends)]
    out = []
    for k, mult in merge_runs(keys, [x.mult for x in b.bars]):
        x = b.bars[k]
        out.append(x if mult == x.mult else GradedBar(x.interval, x.degree, mult))
    return canonical_barcode(out)


def merge_runs(keys: list, mults: list[int]) -> list[Tuple[int, int]]:
    """Stable sort on keys, each run of equal keys as (index of its last
    entry, sum of its mults): the one sort-and-merge of canonical form."""
    out: list[Tuple[int, int]] = []
    prev = None
    for k in sorted(range(len(keys)), key=keys.__getitem__):
        if keys[k] == prev:
            out[-1] = (k, out[-1][1] + mults[k])
        else:
            out.append((k, mults[k]))
        prev = keys[k]
    return out


# the expansion lists each bar mult times; past this many it stalls or overflows
MAX_EXPANDED = 20_000


def expanded_bars(b: GradedBarcode) -> list[Tuple[Interval, int]]:
    """Multiplicity-expanded (interval, degree) list in canonical order.

    Refused past MAX_EXPANDED bars, counted before anything is built."""
    if b.total_mult() > MAX_EXPANDED:
        raise ValidationError(f"barcode has more than {MAX_EXPANDED} bars counted with multiplicity")
    out = []
    for bar_ in canonicalize(b).bars:
        out.extend([(bar_.interval, bar_.degree)] * bar_.mult)
    return out


class HomSpace:
    """Finitely supported graded dimension vector (degree -> dim >= 1)."""

    __slots__ = ("_dims",)

    def __init__(self, dims: Mapping[int, int] | Iterable[Tuple[int, int]] = ()):
        items = dims.items() if isinstance(dims, Mapping) else dims
        acc: dict[int, int] = {}
        for d, n in items:
            if n < 0:
                raise ValidationError("negative dimension")
            if n:
                acc[int(d)] = acc.get(int(d), 0) + int(n)
        self._dims = dict(sorted(acc.items()))

    @property
    def dims(self) -> dict[int, int]:
        return dict(self._dims)

    def shifted(self, k: int) -> "HomSpace":
        return HomSpace({d + k: n for d, n in self._dims.items()})

    def __add__(self, other: "HomSpace") -> "HomSpace":
        return HomSpace([*self._dims.items(), *other._dims.items()])

    def __eq__(self, other):
        if not isinstance(other, HomSpace):
            return NotImplemented
        return self._dims == other._dims

    def __hash__(self):
        return hash(tuple(self._dims.items()))

    def __bool__(self):
        return bool(self._dims)

    def __repr__(self):
        return f"HomSpace({self._dims})"

    def to_json(self):
        return {"dims": {exact_str(d): n for d, n in self._dims.items()}}


# ---------------------------------------------------------------------------
# pointwise operations


def stalk(b: GradedBarcode, t: Extended) -> HomSpace:
    """Graded stalk dimension at t; endpoint flags are respected."""
    return HomSpace((x.degree, x.mult) for x in b.bars if x.interval.contains(t))


def finite_ends(intervals: Iterable[Interval]) -> list[Scalar]:
    """Sorted distinct finite endpoint values, each kept as first seen.

    Equal values dedupe by hash (PiRational(0, s) hashes and compares equal
    to Fraction(s)), so this is one O(n log n) sort.
    """
    vals = dict.fromkeys(e.value for i in intervals for e in (i.lo, i.hi) if e.finite)
    return sorted(vals)


def spec(b: GradedBarcode) -> list[Scalar]:
    """Sorted deduplicated finite endpoint values of all bars."""
    return finite_ends(bar_.interval for bar_ in b.bars)


def ray_sections(b: GradedBarcode, c: Scalar) -> HomSpace:
    """Sections of the restriction to (-oo, c), per bar: k iff a < c <= b^.

    Only defined on the Tamarkin class, where each bar [a, b^) contributes a
    one-dimensional section space exactly when the ray cuts it strictly past
    its birth.
    """
    require_tamarkin(b, "ray_sections")
    return HomSpace(
        (x.degree, x.mult) for x in b.bars if x.interval.lo.value < c <= x.interval.hi.value
    )


def require_tamarkin(b: GradedBarcode, opname: str) -> None:
    for bar_ in b.bars:
        if flavor(bar_.interval) != TAMARKIN:
            raise TamarkinClassError(
                f"{opname} requires [a,b)/[a,oo) bars, got {_excerpt(bar_.interval, str)}"
            )


def map_bars(b: GradedBarcode, f: Callable[[GradedBar], Tuple[Interval, int]]) -> GradedBarcode:
    """Canonical barcode of the bars f(x) = (interval, degree), multiplicities kept."""
    return canonicalize(GradedBarcode(tuple(GradedBar(*f(x), x.mult) for x in b.bars)))


def shift_t(b: GradedBarcode, c: Scalar) -> GradedBarcode:
    return map_bars(b, lambda x: (x.interval.shift(c), x.degree))


def shift_deg(b: GradedBarcode, k: int) -> GradedBarcode:
    """Apply [k]: the stalk field moves down by k degrees."""
    return map_bars(b, lambda x: (x.interval, x.degree - k))


def reflect_barcode(b: GradedBarcode) -> GradedBarcode:
    """Reparametrize by t -> -t; swaps the [-,-) and (-,-] families."""
    return map_bars(b, lambda x: (x.interval.reflect(), x.degree))


def convert_convention(b: GradedBarcode, target: str) -> GradedBarcode:
    """Move a flavor-homogeneous barcode to the target flavor family.

    The persistence <-> sheaf equivalence is the identity on interval data,
    so same-family conversion returns the input; the cross-family variant is
    the t -> -t reparametrization.  Mixed input is rejected.
    """
    if target not in (LEFT_CLOSED, RIGHT_CLOSED):
        raise ValidationError(f"unknown convention {target!r}")
    src = b.convention
    if src == MIXED:
        raise ConventionError("mixed-convention barcode cannot be converted")
    if src == target:
        return canonicalize(b)
    return reflect_barcode(b)


# ---------------------------------------------------------------------------
# singular support description


@dataclass(frozen=True)
class SSDescription:
    """Symbolic singular support of an interval sheaf on the line.

    `base` is the closure of the interval carrying the zero-section part;
    `rays` lists (point, sign) cotangent half-lines, sign +1 for the upward
    covectors, -1 for downward, 0 for the full fiber.
    """

    base: Interval
    rays: Tuple[Tuple[Scalar, int], ...]


def ss_describe(i: Interval) -> SSDescription:
    """Singular support of k_I for each interval flavor.

    The left-endpoint covector sign for [a,b) follows the source convention
    verbatim (upward ray at a); other microlocal conventions put the
    downward ray there, and no downstream operation consumes that sign.
    """
    lo, hi = i.lo, i.hi
    base = Interval(
        Endpoint(lo.value, lo.finite),
        Endpoint(hi.value, hi.finite),
    )
    rays: list[Tuple[Scalar, int]] = []
    if i.is_singleton:
        return SSDescription(base, ((lo.value, 0),))
    if lo.finite:
        rays.append((lo.value, 1 if lo.closed else -1))
    if hi.finite:
        # [a,b) carries the upward ray at b (sections below b cannot cross);
        # the closed right end of (a,b] carries the downward one.
        rays.append((hi.value, 1 if not hi.closed else -1))
    return SSDescription(base, tuple(rays))


# ---------------------------------------------------------------------------
# JSON interchange


def barcode_json_text(b: GradedBarcode) -> str:
    """The canonical JSON text of b: what json.dumps with sorted keys and
    the separators "," and ":" would write for its {"bars", "convention"}
    record, written directly.

    Each end's text is built once per distinct Endpoint object (the ops
    kernel's output bars share theirs), and each bar is one f-string.
    Nothing needs escaping: `scalar_to_json` gives "+inf", "-inf", str() of
    a rational (the characters -0-9/) or a {"pi", "plus"} pair of those,
    and the convention is one of three names.  A degree or multiplicity
    past the int-to-string digit limit is refused with a DomainError, as
    `exact_str` refuses a value."""
    cb = canonicalize(b)
    ends = [e for x in cb.bars for e in (x.interval.lo, x.interval.hi)]
    # cb holds every endpoint for the whole call, so no id is reused
    keys = list(map(id, ends))
    texts = {}
    for k, e in dict(zip(keys, ends)).items():
        v = scalar_to_json(e.value)
        v = f'"{v}"' if type(v) is str else f'{{"pi":"{v["pi"]}","plus":"{v["plus"]}"}}'
        texts[k] = f'{{"closed":{"true" if e.closed else "false"},"v":{v}}}'
    end_texts = [texts[k] for k in keys]
    bars = zip(cb.bars, end_texts[::2], end_texts[1::2])
    try:
        body = ",".join([f'{{"deg":{x.degree},"hi":{hi},"lo":{lo},"mult":{x.mult}}}' for x, lo, hi in bars])
    except ValueError:
        raise long_int_error((n for x in cb.bars for n in (x.degree, x.mult)), "degree or multiplicity") from None
    return f'{{"bars":[{body}],"convention":"{cb.convention}"}}'


def barcode_to_json(b: GradedBarcode) -> dict:
    """The JSON record of b, read back from `barcode_json_text`."""
    return json.loads(barcode_json_text(b))


def barcode_from_json(obj) -> GradedBarcode:
    if not isinstance(obj, dict) or not isinstance(obj.get("bars"), list):
        raise ValidationError("barcode JSON must be an object with a 'bars' list")
    made: dict = {}  # (str or int literal, closed) -> its one checked Endpoint

    def end(v, closed: bool) -> Endpoint:
        if type(v) is not str and type(v) is not int:  # a {"pi", "plus"} pair, or refused
            return Endpoint(scalar_from_json(v), closed)
        return made.get((v, closed)) or made.setdefault((v, closed), Endpoint(scalar_from_json(v), closed))

    bars = []
    for rec in obj["bars"]:
        try:
            ends = (rec["lo"], rec["hi"])
            values = [e["v"] for e in ends]
            flags = [e["closed"] for e in ends]
            counts = (rec.get("deg", 0), rec.get("mult", 1))
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad bar record {_excerpt(rec)}") from exc
        # floats and bools would be quietly converted; exact input refuses them
        if not all(isinstance(f, bool) for f in flags) or not all(
            isinstance(n, int) and not isinstance(n, bool) for n in counts
        ):
            raise ValidationError(
                f"bad bar record {_excerpt(rec)}: 'deg' and 'mult' must be integers, 'closed' true or false"
            )
        bars.append(GradedBar(Interval(end(values[0], flags[0]), end(values[1], flags[1])), *counts))
    out = canonicalize(GradedBarcode(tuple(bars)))
    declared = obj.get("convention")
    if declared is not None and declared != out.convention:
        raise ValidationError(
            f"declared convention {_excerpt(declared)} does not match bars ({out.convention})"
        )
    return out
