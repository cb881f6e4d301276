"""Barcode rendering: SVG 1.1 and plain-text lanes.

One lane per degree.  Closed endpoints get a solid cap, open endpoints an
unfilled notch, infinite ends an arrowhead; endpoint types are semantically
load-bearing in this calculus, so the pictures must show them.  Output is a
pure function of the canonical barcode (fixed float formatting, no state).
"""

from __future__ import annotations

from .errors import ValidationError
from .exactnum import exact_str
from .intervals import GradedBarcode, canonicalize, expanded_bars, spec

_W = 720
_MARGIN = 56
_BAR_H = 14
_LANE_GAP = 26
# ends are placed as floats; past this magnitude the window would overflow
MAX_DRAWN = 10**300


def _xml_text(s: str) -> str:
    """s as XML character data: markup escaped, characters XML 1.0 forbids dropped.

    Escaped by hand: html.escape would load its entity tables (~0.5 MB)
    into every CLI process.
    """
    s = "".join(
        c
        for c in s
        if c in "\t\n\r" or " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd" or c >= "\U00010000"
    )
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _window(b: GradedBarcode) -> tuple[float, float]:
    ends = spec(b)  # sorted
    try:  # float() of a q*pi + s end overflows when q or s is past float range
        if ends and (ends[0] < -MAX_DRAWN or ends[-1] > MAX_DRAWN):
            raise OverflowError
        vals = [float(v) for v in ends]
    except OverflowError:
        raise ValidationError("cannot draw a barcode with an end past +-1e300") from None
    for v in ends:
        exact_str(v)  # each end is a label: refused past the digit limit, as JSON output is
    if not vals:
        return (0.0, 1.0)
    lo, hi = min(vals), max(vals)
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    pad = (hi - lo) * 0.08
    return lo - pad, hi + pad


def svg_barcode(b: GradedBarcode, title: str = "") -> str:
    cb = canonicalize(b)
    lo, hi = _window(cb)
    span = hi - lo

    def x_of(v) -> float:
        f = min(max(float(v), lo), hi)
        return _MARGIN + (_W - 2 * _MARGIN) * (f - lo) / span

    rows = expanded_bars(cb)  # canonical order groups the rows by degree
    degrees = {d for _, d in rows}
    height = 2 * _MARGIN + max(1, len(rows)) * _BAR_H + len(degrees) * _LANE_GAP
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{height}" viewBox="0 0 {_W} {height}">',
        f'<rect width="{_W}" height="{height}" fill="white"/>',
    ]
    if title:
        text = _xml_text(title)
        out.append(
            f'<text x="{_W/2:.1f}" y="18" text-anchor="middle" '
            f'font-family="monospace" font-size="13">{text}</text>'
        )
    axis_y = height - _MARGIN / 2
    out.append(
        f'<line x1="{_MARGIN}" y1="{_fmt(axis_y)}" x2="{_W - _MARGIN}" '
        f'y2="{_fmt(axis_y)}" stroke="black" stroke-width="1"/>'
    )
    for v in spec(cb):
        x = x_of(v)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(axis_y - 4)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(axis_y + 4)}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{_fmt(axis_y + 16)}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{str(v).replace("pi", "π")}</text>'
        )
    y = float(_MARGIN)
    cur_deg = None
    for iv, d in rows:
        if d != cur_deg:
            cur_deg = d
            y += _LANE_GAP
            out.append(
                f'<text x="8" y="{_fmt(y)}" font-family="monospace" '
                f'font-size="11">deg {d}</text>'
            )
        x1, x2 = x_of(iv.lo.value), x_of(iv.hi.value)  # clamping takes -oo/+oo to the margins
        out.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y)}" x2="{_fmt(x2)}" y2="{_fmt(y)}" '
            f'stroke="#1f4e8c" stroke-width="3"/>'
        )
        for xv, e, left in ((x1, iv.lo, True), (x2, iv.hi, False)):
            if not e.finite:
                d_ = 6 if left else -6
                out.append(
                    f'<path d="M {_fmt(xv + d_)} {_fmt(y - 4)} L {_fmt(xv)} {_fmt(y)} '
                    f'L {_fmt(xv + d_)} {_fmt(y + 4)}" fill="none" stroke="#1f4e8c" '
                    f'stroke-width="2"/>'
                )
            elif e.closed:
                out.append(
                    f'<rect x="{_fmt(xv - 2.5)}" y="{_fmt(y - 2.5)}" width="5" '
                    f'height="5" fill="#1f4e8c"/>'
                )
            else:
                out.append(
                    f'<circle cx="{_fmt(xv)}" cy="{_fmt(y)}" r="3" fill="white" '
                    f'stroke="#1f4e8c" stroke-width="1.5"/>'
                )
        y += _BAR_H
    out.append("</svg>")
    return "\n".join(out) + "\n"


def text_barcode(b: GradedBarcode, width: int = 64) -> str:
    cb = canonicalize(b)
    if not cb.bars:
        return "(empty barcode)\n"
    lo, hi = _window(cb)
    span = hi - lo

    def col(v) -> int:
        f = min(max(float(v), lo), hi)
        return int(round((width - 1) * (f - lo) / span))

    lines = []
    for bar in cb.bars:
        iv = bar.interval
        c1, c2 = col(iv.lo.value), col(iv.hi.value)  # -oo/+oo clamp to the ends
        row = [" "] * width
        for c in range(c1, c2 + 1):
            row[c] = "="
        row[c1] = ("[" if iv.lo.closed else "(") if iv.lo.finite else "<"
        row[c2] = ("]" if iv.hi.closed else ")") if iv.hi.finite else ">"
        label = f"deg {bar.degree:>3} x{bar.mult}"
        lines.append(f"{label:<12}|{''.join(row)}| {iv}")
    return "\n".join(lines) + "\n"
