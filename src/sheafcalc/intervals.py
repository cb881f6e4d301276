"""Interval and graded-barcode value types plus their pointwise calculus.

A barcode is a finite multiset of intervals with integer cohomological
degrees ("degree d" = the degree where the one-dimensional stalk sits, so a
shift [n] lowers the degree field by n).  Everything here is immutable and
exact; canonical form is sorted-and-merged, and equality is canonical
multiset equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Optional, Tuple

from .errors import ConventionError, TamarkinClassError, ValidationError
from .exactnum import (
    Extended,
    Infinity,
    PiRational,
    Scalar,
    _excerpt,
    exact_str,
    is_finite,
    scalar_from_json,
    scalar_to_json,
)

LEFT_CLOSED = "left-closed"
RIGHT_CLOSED = "right-closed"
MIXED = "mixed"


@dataclass(frozen=True)
class Endpoint:
    value: Extended
    closed: bool

    def __post_init__(self):
        if isinstance(self.value, Infinity) and self.closed:
            raise ValidationError("infinite endpoints are always open")
        if isinstance(self.value, int):
            object.__setattr__(self, "value", Fraction(self.value))
        elif not isinstance(self.value, (Fraction, PiRational, Infinity)):
            raise ValidationError(f"bad endpoint value {_excerpt(self.value)}")

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


@dataclass(frozen=True)
class Interval:
    """A nonempty interval of the real line.

    Canonical form admits the four bounded flavors, half-lines, the full
    line, and the singleton {a} (both endpoints closed and equal).
    """

    lo: Endpoint
    hi: Endpoint

    def __post_init__(self):
        lo, hi = self.lo.value, self.hi.value
        if lo > hi:
            raise ValidationError(f"empty interval: lo {self.lo} > hi {self.hi}")
        if lo == hi and not (self.lo.closed and self.hi.closed):
            raise ValidationError(
                "degenerate interval must be the both-closed singleton"
            )

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

    def is_tamarkin(self) -> bool:
        """[a,b) or [a,oo): finite closed left end, open right end."""
        return self.lo.finite and self.lo.closed and not self.hi.closed

    def is_left_closed_family(self) -> bool:
        """[a,b)-flavor, degenerately allowing an open -inf left end."""
        lo_ok = self.lo.closed or not self.lo.finite
        return lo_ok and not self.hi.closed

    def is_right_closed_family(self) -> bool:
        hi_ok = self.hi.closed or not self.hi.finite
        return hi_ok and not self.lo.closed

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


def interval(lo, hi, lo_closed: bool = True, hi_closed: bool = False) -> Interval:
    return Interval(ep(lo, lo_closed), ep(hi, hi_closed))


def singleton(a) -> Interval:
    return Interval(ep(a, True), ep(a, True))


@dataclass(frozen=True)
class GradedBar:
    interval: Interval
    degree: int = 0
    mult: int = 1

    def __post_init__(self):
        if self.mult < 1:
            raise ValidationError("bar multiplicity must be >= 1")


@dataclass(frozen=True)
class GradedBarcode:
    bars: Tuple[GradedBar, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "bars", tuple(self.bars))

    # -- canonical form ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GradedBarcode):
            return NotImplemented
        return canonicalize(self).bars == canonicalize(other).bars

    def __hash__(self):
        return hash(canonicalize(self).bars)

    def __iter__(self) -> Iterator[GradedBar]:
        return iter(self.bars)

    def __len__(self):
        return len(self.bars)

    @property
    def convention(self) -> str:
        """Interval-flavor family tag, inferred from the bars.

        Singleton bars are flavor-neutral; an empty barcode reports the
        left-closed default.
        """
        tags = set()
        for bar in self.bars:
            if bar.interval.is_singleton:
                continue
            if bar.interval.is_left_closed_family():
                tags.add(LEFT_CLOSED)
            elif bar.interval.is_right_closed_family():
                tags.add(RIGHT_CLOSED)
            else:
                tags.add(MIXED)
        if not tags:
            return LEFT_CLOSED
        if len(tags) > 1:
            return MIXED
        return tags.pop()

    def is_tamarkin(self) -> bool:
        return all(b.interval.is_tamarkin() for b in self.bars)

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


def _bar_key(x: GradedBar) -> tuple:
    # at equal values a closed left end sorts first, an open right end first
    lo, hi = x.interval.lo, x.interval.hi
    return (x.degree, lo.value, not lo.closed, hi.value, hi.closed)


def canonicalize(b: GradedBarcode) -> GradedBarcode:
    """Sort by (degree, lo, hi) and merge equal bars into multiplicity; a
    merged bar keeps the interval of the last bar of its (stable) run."""
    out: list[GradedBar] = []
    prev = None
    for bar_ in sorted(b.bars, key=_bar_key):
        key = _bar_key(bar_)
        if key == prev:
            out[-1] = GradedBar(bar_.interval, bar_.degree, out[-1].mult + bar_.mult)
        else:
            out.append(bar_)
        prev = key
    return GradedBarcode(tuple(out))


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

    def dim(self, degree: int) -> int:
        return self._dims.get(degree, 0)

    def total(self) -> int:
        return sum(self._dims.values())

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
        if not bar_.interval.is_tamarkin():
            raise TamarkinClassError(
                f"{opname} requires [a,b)/[a,oo) bars, got {bar_.interval}"
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


def barcode_to_json(b: GradedBarcode) -> dict:
    cb = canonicalize(b)
    return {
        "convention": cb.convention,
        "bars": [
            {
                "lo": {"v": scalar_to_json(x.interval.lo.value), "closed": x.interval.lo.closed},
                "hi": {"v": scalar_to_json(x.interval.hi.value), "closed": x.interval.hi.closed},
                "deg": x.degree,
                "mult": x.mult,
            }
            for x in cb.bars
        ],
    }


def barcode_from_json(obj) -> GradedBarcode:
    if not isinstance(obj, dict) or not isinstance(obj.get("bars"), list):
        raise ValidationError("barcode JSON must be an object with a 'bars' list")
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
        lo, hi = (Endpoint(scalar_from_json(v), f) for v, f in zip(values, flags))
        bars.append(GradedBar(Interval(lo, hi), *counts))
    out = canonicalize(GradedBarcode(tuple(bars)))
    declared = obj.get("convention")
    if declared is not None and declared != out.convention:
        raise ValidationError(
            f"declared convention {_excerpt(declared)} does not match bars ({out.convention})"
        )
    return out
