"""Closed-form invariants of symplectic balls and ellipsoids.

Filtration values here live on the pi-rational line q*pi + s.  The action
spectrum of the ball B(r) is {m pi r^2}; stalk degrees follow half-open
action bins [m pi r^2, (m+1) pi r^2) (the ceiling form of the published
formulas is ambiguous exactly at the bin boundaries, and the half-open
convention is the one that reproduces the quoted barcodes).

`action_bin` is the one place a level meets the spectrum: it finds the bin
of T in O(1), so stalks, S_T and transfer maps cost O(1) in T, and only
the barcode and spectrum list grow with their cutoff.

`eigen_count` is the independent brute-force oracle: it counts positive
eigenvalues of the discrete-loop generating-function quadratic form with
certified interval arithmetic, and must agree with the stalk degrees for
every discretization size M.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Tuple, Union

from .errors import SpectralProximityError, ValidationError
from .exactnum import PI_HI, PI_LO, POS_INF, Infinity, PiRational, _excerpt, _json_rational, exact_str
from .intervals import (
    Endpoint,
    GradedBar,
    GradedBarcode,
    HomSpace,
    Interval,
    canonicalize,
)
from .ops import rhom_total

ExactT = Union[int, Fraction, PiRational]


def as_pi_scalar(x: ExactT) -> PiRational:
    if isinstance(x, PiRational):
        return x
    if isinstance(x, Infinity):
        raise ValidationError(f"filtration value must be finite, got {x}")
    return PiRational(Fraction(0), Fraction(x))


def pi_times(q) -> PiRational:
    return PiRational(Fraction(q), Fraction(0))


@dataclass(frozen=True)
class Ball:
    n: int
    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", Fraction(self.r))
        if self.n < 1 or self.r <= 0:
            raise ValidationError("ball needs n >= 1 and r > 0")

    @property
    def rsq(self) -> Fraction:
        return self.r * self.r


@dataclass(frozen=True)
class Ellipsoid:
    """E(r, R, ..., R) with n - 1 equal large radii."""

    n: int
    r: Fraction
    R: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", Fraction(self.r))
        object.__setattr__(self, "R", Fraction(self.R))
        if self.n < 2:
            raise ValidationError("ellipsoid needs n >= 2")
        if not 0 < self.r <= self.R:
            raise ValidationError("ellipsoid needs 0 < r <= R")


@dataclass(frozen=True)
class ScaledBall:
    """The sublevel rescaling cB = {H < c r^2}, 0 < c <= 1."""

    c: Fraction
    inner: Ball

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        if not 0 < self.c <= 1:
            raise ValidationError("scale factor must lie in (0, 1]")

    @property
    def n(self) -> int:
        return self.inner.n

    @property
    def rsq(self) -> Fraction:
        return self.c * self.inner.rsq


DomainSpec = Union[Ball, Ellipsoid, ScaledBall]


def action_bin(T: ExactT, rsq: Fraction) -> int:
    """Largest m >= 0 with m pi rsq <= T (half-open bins).

    The first guess floors (q + s/pi) / rsq with s/pi bounded below through
    the pi enclosure: it is the answer, or the checks below raise
    PiComparisonError because the enclosure is too wide to tell.
    """
    t = as_pi_scalar(T)
    if t.sign() < 0:
        raise ValidationError("filtration value must be >= 0")
    s_over_pi = t.s / (PI_HI if t.s > 0 else PI_LO) if t.s else 0
    m = max(0, (t.q + s_over_pi) // rsq)
    while pi_times(m * rsq) > t:
        m -= 1
    while pi_times((m + 1) * rsq) <= t:
        m += 1
    return m


def ball_stalk(n: int, r, T: ExactT) -> HomSpace:
    """Stalk of the ball sheaf B(r) in dimension n at filtration T."""
    return domain_stalk(Ball(n, r), T)


def ellipsoid_stalk(n: int, r, R, T: ExactT) -> HomSpace:
    """Stalk of the ellipsoid sheaf E(r, R, ..., R) at filtration T."""
    return domain_stalk(Ellipsoid(n, r, R), T)


# ---------------------------------------------------------------------------
# eigenvalue-count oracle

_EXCLUSION = Fraction(1, 10**6)
# eigen_count is linear in M and keeps M intervals; past this it stalls
MAX_M = 20_000


@lru_cache(maxsize=None)
def _iv():
    """mpmath's interval context at 60 digits, imported by the first eigen
    count, so no other subcommand pays for loading mpmath."""
    from mpmath import iv

    iv.dps = 60
    return iv


@lru_cache(maxsize=4)
def _cos_angles(M: int) -> tuple:
    """cos(2 pi k / M) for k = 0 .. M-1 as certified intervals."""
    iv = _iv()
    return tuple(iv.cos(2 * iv.pi * iv.mpf(k) / iv.mpf(M)) for k in range(M))


def _check_band(T: Fraction, rsq: Fraction) -> None:
    band = _EXCLUSION * rsq  # times pi, folded into the comparison
    m = action_bin(T, rsq)
    # only the bin's two ends can lie within the band, a tiny part of a bin
    for mm in (m, m + 1):
        # |T - mm pi rsq| >= band * pi
        diff = as_pi_scalar(T) - pi_times(mm * rsq)
        if diff.sign() < 0:
            diff = -diff
        if diff < pi_times(band):
            raise SpectralProximityError(
                f"T is within the exclusion band of {mm}*pi*r^2"
            )


def eigen_count(T, r, M: int) -> int:
    """Positive eigenvalues of the M-step discrete-action quadratic form.

    The circulant form has eigenvalues (cos(theta) - cos(2 pi k / M)) up to
    the negative factor sin(theta), theta = 2T/(r^2 M); signs are certified
    with interval arithmetic and the call is rejected inside the exclusion
    band around the action spectrum, where an eigenvalue vanishes.
    """
    return _eigen_count_rsq(Fraction(T), Fraction(r) ** 2, M)


def _eigen_count_rsq(T: Fraction, rsq: Fraction, M: int) -> int:
    if not 1 <= M <= MAX_M:
        raise ValidationError(f"need 1 <= M <= {MAX_M}")
    if T < 0:
        raise ValidationError("need T >= 0")
    theta = 2 * T / (rsq * M)
    if theta >= pi_times(1):
        raise ValidationError(
            "discretization too coarse: need 2T/(r^2 M) < pi, and its integer "
            f"part has {int(theta).bit_length()} bits; raise M"
        )
    _check_band(T, rsq)
    iv = _iv()
    th = iv.mpf(theta.numerator) / iv.mpf(theta.denominator)
    cos_theta = iv.cos(th)
    count = 0
    for k, cos_angle in enumerate(_cos_angles(M)):
        diff = cos_angle - cos_theta
        if diff.a > 0:
            count += 1
        elif not (diff.b < 0):
            raise SpectralProximityError(
                f"eigenvalue sign for k={k}, M={M} not certifiable at this T"
            )
    return count


# ---------------------------------------------------------------------------
# barcodes, invariants, transfer, mapping cones


def _rsqs(d: DomainSpec) -> list[Fraction]:
    """The squared radii whose action bins make up the domain's spectrum."""
    return [d.r * d.r, d.R * d.R] if isinstance(d, Ellipsoid) else [d.rsq]


def _spec_values(d: DomainSpec, limit: PiRational) -> list[PiRational]:
    """Action-spectrum values of the domain sheaf that are <= limit."""
    qs = {m * rsq for rsq in _rsqs(d) for m in range(action_bin(limit, rsq) + 1)}
    return [pi_times(q) for q in sorted(qs)]


def domain_spec(d: DomainSpec, limit: ExactT) -> list[PiRational]:
    return _spec_values(d, as_pi_scalar(limit))


def _stalk_degree(d: DomainSpec, T: PiRational) -> int:
    """Ball: n(2m+1) for T in the m-th action bin.  Ellipsoid: 2(n-1)m_R +
    2m_r - n with the bin counts m = floor(T/(pi rho^2)) + 1 for each
    radius rho."""
    if isinstance(d, Ellipsoid):
        m_r, m_R = (action_bin(T, rsq) + 1 for rsq in _rsqs(d))
        return 2 * (d.n - 1) * m_R + 2 * m_r - d.n
    return d.n * (2 * action_bin(T, d.rsq) + 1)


def domain_stalk(d: DomainSpec, T: ExactT) -> HomSpace:
    """Stalk of the domain sheaf at T, dispatching on the domain kind."""
    return HomSpace({_stalk_degree(d, as_pi_scalar(T)): 1})


# the barcode grows linearly with its cutoff; 20,000 strata take seconds
MAX_STRATA = 20_000


def domain_barcode(d: DomainSpec, Tmax: ExactT) -> GradedBarcode:
    """Sheaf barcode of the domain up to filtration Tmax.

    One bar per stratum between consecutive action-spectrum values, closed
    left and open right: adjacent stalks sit in different degrees, so every
    transition map vanishes and the stalks determine the barcode.  At most
    MAX_STRATA strata, counted in O(1) before anything is built.
    """
    tmax = as_pi_scalar(Tmax)
    if sum(action_bin(tmax, rsq) + 1 for rsq in _rsqs(d)) > MAX_STRATA:
        raise ValidationError(f"the barcode up to this cutoff has more than {MAX_STRATA} strata")
    specs = _spec_values(d, tmax)
    his = specs[1:] + [_next_spec_after(d, specs[-1])]
    bars = tuple(
        GradedBar(Interval(Endpoint(lo, True), Endpoint(hi, False)), _stalk_degree(d, lo))
        for lo, hi in zip(specs, his)
        if lo < tmax
    )
    return canonicalize(GradedBarcode(bars))


def _next_spec_after(d: DomainSpec, lo: PiRational) -> PiRational:
    return min(pi_times((action_bin(lo, rsq) + 1) * rsq) for rsq in _rsqs(d))


def sheaf_invariant(d: DomainSpec, T: ExactT) -> HomSpace:
    """S_T of the domain: RHom of its sheaf against k_[T,oo) placed n
    degrees up, reported so the ball lands in degree exactly 2mn.

    Only the stratum [lo, hi) holding T pairs with the probe, so that one
    bar stands for the sheaf: lo is the largest spectrum value <= T, found
    by `action_bin` for each radius, which makes the cost O(1) in T.
    """
    t = as_pi_scalar(T)
    lo = max(pi_times(action_bin(t, rsq) * rsq) for rsq in _rsqs(d))
    stratum = GradedBar(
        Interval(Endpoint(lo, True), Endpoint(_next_spec_after(d, lo), False)),
        _stalk_degree(d, t),
    )
    probe = GradedBar(Interval(Endpoint(t, True), Endpoint(POS_INF, False)), d.n)
    total = rhom_total(GradedBarcode((stratum,)), GradedBarcode((probe,)))
    return HomSpace({-deg: dim for deg, dim in total.dims.items()})


def transfer_is_iso(d: DomainSpec, T1: ExactT, T2: ExactT) -> bool:
    """Whether the canonical map S_T1 -> S_T2 is an isomorphism: true iff
    [T1, T2] avoids the action spectrum, that is iff for every radius T1
    and T2 share an action bin and T1 is not the bin's left end.  O(1) in
    T1 and T2."""
    t1, t2 = as_pi_scalar(T1), as_pi_scalar(T2)
    bins = [(rsq, action_bin(t1, rsq)) for rsq in _rsqs(d)]
    if t1 > t2:
        raise ValidationError("need T1 <= T2")
    return all(
        t1 != pi_times(m * rsq) and action_bin(t2, rsq) == m for rsq, m in bins
    )


def inclusion_cone_rank(r, c, T, n: int, M: int) -> HomSpace:
    """Graded rank of the mapping cone of the rescaled-ball inclusion.

    With m1 positive eigenvalues at radius r and m_c at the rescaled
    radius, the cone is one-dimensional in degree n(m_c - m1) and vanishes
    when the counts agree.
    """
    ball = Ball(n, Fraction(r))
    scaled = ScaledBall(Fraction(c), ball)
    m1 = _eigen_count_rsq(Fraction(T), ball.rsq, M)
    mc = _eigen_count_rsq(Fraction(T), scaled.rsq, M)
    if mc == m1:
        return HomSpace()
    return HomSpace({n * (mc - m1): 1})


@dataclass(frozen=True)
class NonsqueezeVerdict:
    obstructed: bool
    verdict: str
    chosen_T: Optional[PiRational]
    ball_invariant: Optional[HomSpace]
    ellipsoid_invariant: Optional[HomSpace]
    trace: Tuple[str, ...]


def nonsqueeze_check(n: int, r1, r2, R) -> NonsqueezeVerdict:
    """Embedding obstruction for B(r1) -> E(r2, R, ..., R).

    For r1 > r2 the witness level T = pi (r1^2 + r2^2)/2 separates the
    sheaf invariants by degree while the rescaling mapping cone pins the
    inclusion-induced map to rank one, which is the contradiction; for
    r1 <= r2 the invariant sees nothing.
    """
    r1, r2, R = Fraction(r1), Fraction(r2), Fraction(R)
    if R <= max(r1, r2):
        raise ValidationError("need R > max(r1, r2)")
    if r1 <= r2:
        return NonsqueezeVerdict(
            False,
            "NOT-OBSTRUCTED-BY-THIS-INVARIANT",
            None,
            None,
            None,
            (
                f"r1 = {r1} <= r2 = {r2}: the witness window (pi r2^2, pi r1^2) is empty;",
                "the invariant cannot rule out an embedding (and none should exist to rule out).",
            ),
        )
    T = pi_times((r1 * r1 + r2 * r2) / 2)
    ball = Ball(n, r1)
    ell = Ellipsoid(n, r2, R)
    s_ball = sheaf_invariant(ball, T)
    s_ell = sheaf_invariant(ell, T)
    ball_deg = next(iter(s_ball.dims))
    ell_deg = next(iter(s_ell.dims))
    bd, ed = exact_str(ball_deg), exact_str(ell_deg)
    trace = (
        f"choose T = {exact_str(T)} inside (pi r2^2, pi r1^2) = "
        f"({exact_str(pi_times(r2 * r2))}, {exact_str(pi_times(r1 * r1))})",
        f"S_T(B({r1})) = k[-{bd}] (first action bin, degree {bd})",
        f"S_T(E({r2},{R},..)) = k[-{ed}] (small radius already past its first bin)",
        "an embedding would factor S_T(B(R+)) -> S_T(E) -> S_T(B(r1)) through degree "
        f"{ed} != {bd}, forcing the composite to vanish",
        "but the rescaling mapping cone has rank <= 1, so the restriction "
        "S_T(B(R+)) -> S_T(B(r1)) cannot vanish: contradiction",
    )
    if ball_deg != 0 or ell_deg == 0:
        raise ValidationError("invariant degrees degenerated; check radii")  # pragma: no cover
    return NonsqueezeVerdict(True, "OBSTRUCTED", T, s_ball, s_ell, trace)


# ---------------------------------------------------------------------------
# JSON forms


def domain_to_json(d: DomainSpec) -> dict:
    if isinstance(d, Ball):
        return {"ball": {"n": d.n, "r": str(d.r)}}
    if isinstance(d, Ellipsoid):
        return {"ellipsoid": {"n": d.n, "r": str(d.r), "R": str(d.R)}}
    return {"scaled_ball": {"c": str(d.c), "ball": domain_to_json(d.inner)["ball"]}}


def domain_from_json(obj) -> DomainSpec:
    """Inverse of domain_to_json; n must be a JSON integer, r, R and c exact
    rationals (JSON integers or strings), as in barcode JSON."""

    def n_of(rec) -> int:
        if isinstance(rec["n"], int) and not isinstance(rec["n"], bool):
            return rec["n"]
        raise ValidationError(f"bad domain spec {_excerpt(obj)}: 'n' must be a JSON integer")

    def q(v) -> Fraction:
        return _json_rational(v, obj)

    try:
        if "ball" in obj:
            b = obj["ball"]
            return Ball(n_of(b), q(b["r"]))
        if "ellipsoid" in obj:
            e = obj["ellipsoid"]
            return Ellipsoid(n_of(e), q(e["r"]), q(e["R"]))
        if "scaled_ball" in obj:
            s = obj["scaled_ball"]
            return ScaledBall(q(s["c"]), Ball(n_of(s["ball"]), q(s["ball"]["r"])))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad domain spec {_excerpt(obj)}") from exc
    raise ValidationError(f"bad domain spec {_excerpt(obj)}")
