"""Seeded inputs for the benchmark workloads.

A workload is a fixed list of CLI jobs, each an argv list for
``sheafcalc.cli.main`` plus the generator-side data the correctness gate
needs.  The inputs depend only on the seed, and the program sees only the
files written here.  Job sizes are fixed per workload and the seed draws the
contents, so every seed gets the same spread of job costs.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction as F

# Job-kind counts per workload list and their size ranges.  Sized so that
# every kind costs roughly the same per job on the seed code (one mode of
# job times), which keeps the median job time steady.
OPS_MIX = {
    "convolve": (5, 30, 45),      # bars per side
    "hom-star": (5, 30, 45),
    "rhom-sheaf": (5, 70, 100),
    "rhom-total": (5, 170, 230),
}
DIST_MIX = (16, 30, 60)           # jobs, bars per side of the first barcode
MORSE_SUBLEVEL = (12, 15, 30)     # jobs, grid side n (6 n^2 simplices)
MORSE_SHEAF = (6, 4, 5)           # jobs, grid side n
DOMAIN_RADII = [F(1, 2) + F(i, 6) for i in range(10)]


@dataclass
class Job:
    key: str            # stable id within the workload, e.g. "convolve-03"
    kind: str           # job kind, one per CLI route
    argv: list          # CLI arguments (file paths relative to the checkout)
    data: dict = field(default_factory=dict)  # generator data for the gate


# -- shared helpers ----------------------------------------------------------


def sizes(count: int, lo: int, hi: int) -> list[int]:
    """`count` (>= 2) evenly spaced sizes from lo to hi; the same for every seed."""
    return [lo + round(k * (hi - lo) / (count - 1)) for k in range(count)]


def _endpoint(rng: random.Random, top: int) -> F:
    q = rng.choice((1, 2, 3, 4))
    return F(rng.randint(0, top * q), q)


def tamarkin_bars(rng: random.Random, n: int, degrees: int, top: int = 20, inf_p: float = 0.1):
    """n bars (lo, hi, degree) of type [lo, hi) or [lo, +inf) (hi None)."""
    bars = []
    for _ in range(n):
        lo = _endpoint(rng, top)
        hi = None if rng.random() < inf_p else lo + _endpoint(rng, top // 2) + F(1, 4)
        bars.append((lo, hi, rng.randrange(degrees)))
    return bars


def barcode_json(bars) -> dict:
    return {
        "convention": "left-closed",
        "bars": [
            {
                "lo": {"v": str(lo), "closed": True},
                "hi": {"v": "+inf" if hi is None else str(hi), "closed": False},
                "deg": deg,
                "mult": 1,
            }
            for lo, hi, deg in bars
        ],
    }


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def write_barcode(workdir: str, name: str, bars) -> str:
    return _write(workdir, name, json.dumps(barcode_json(bars)))


# -- ops-bilinear -------------------------------------------------------------


def ops_bilinear(rng: random.Random, workdir: str) -> list[Job]:
    jobs = []
    for op, (count, lo, hi) in OPS_MIX.items():
        for k, n in enumerate(sizes(count, lo, hi)):
            key = f"{op}-{k:02d}"
            f = tamarkin_bars(rng, n, 3)
            g = tamarkin_bars(rng, n, 3)
            a = write_barcode(workdir, f"{key}-a.json", f)
            b = write_barcode(workdir, f"{key}-b.json", g)
            jobs.append(Job(key, op, ["ops", op, a, b], {"f": f, "g": g}))
    return jobs


# -- dist-bottleneck ----------------------------------------------------------


def perturb(rng: random.Random, bars, degrees: int):
    """Move every endpoint by at most 1, drop a few short bars, add a few."""
    out = []
    for lo, hi, deg in bars:
        if hi is not None and hi - lo <= 1 and rng.random() < 0.2:
            continue
        lo2 = lo + F(rng.randint(-8, 8), 8)
        if hi is None:
            out.append((lo2, None, deg))
            continue
        hi2 = hi + F(rng.randint(-8, 8), 8)
        if hi2 <= lo2:
            hi2 = lo2 + F(1, 8)
        out.append((lo2, hi2, deg))
    for _ in range(rng.randint(1, 4)):
        lo = _endpoint(rng, 40)
        out.append((lo, lo + F(rng.randint(1, 8), 8), rng.randrange(degrees)))
    rng.shuffle(out)
    return out


def dist_bottleneck(rng: random.Random, workdir: str) -> list[Job]:
    count, lo, hi = DIST_MIX
    jobs = []
    for k, n in enumerate(sizes(count, lo, hi)):
        key = f"dist-{k:02d}"
        degrees = 1 + k % 3
        a = tamarkin_bars(rng, n, degrees, top=40)
        b = perturb(rng, a, degrees)
        pa = write_barcode(workdir, f"{key}-a.json", a)
        pb = write_barcode(workdir, f"{key}-b.json", b)
        jobs.append(Job(key, "dist", ["dist", pa, pb], {"a": a, "b": b}))
    return jobs


# -- morse-persistence --------------------------------------------------------


def grid_torus(n: int):
    """Triangulated n x n grid torus: (vertex count, triangles)."""
    tris = []
    for i in range(n):
        for j in range(n):
            v = i * n + j
            right = i * n + (j + 1) % n
            down = ((i + 1) % n) * n + j
            diag = ((i + 1) % n) * n + (j + 1) % n
            tris.append(tuple(sorted((v, down, diag))))
            tris.append(tuple(sorted((v, right, diag))))
    return n * n, tris


def torus_values(rng: random.Random, n: int) -> list[F]:
    """Two tent functions around the torus plus small seeded noise.

    The tents give a height-like function with few critical points; the
    noise adds short bars, so barcodes stay small against the complex.
    """
    s1, s2 = rng.randrange(n), rng.randrange(n)
    vals = []
    for i in range(n):
        for j in range(n):
            ti = min((i + s1) % n, n - (i + s1) % n)
            tj = min((j + s2) % n, n - (j + s2) % n)
            vals.append(F(8 * ti + 5 * tj + rng.randint(0, 6), 4))
    return vals


def off_text(nv: int, values, tris) -> str:
    lines = [f"{nv} {len(tris)}", " ".join(str(v) for v in values)]
    lines.extend(f"3 {a} {b} {c}" for a, b, c in tris)
    return "\n".join(lines) + "\n"


def morse_persistence(rng: random.Random, workdir: str) -> list[Job]:
    jobs = []
    plan = [("sublevel", n) for n in sizes(*MORSE_SUBLEVEL)]
    count, lo, hi = MORSE_SHEAF
    plan += [("sheaf", lo + k % (hi - lo + 1)) for k in range(count)]
    for k, (route, n) in enumerate(plan):
        key = f"{route}-{k:02d}"
        nv, tris = grid_torus(n)
        values = torus_values(rng, n)
        path = _write(workdir, f"{key}.off", off_text(nv, values, tris))
        jobs.append(
            Job(key, route, ["morse", route, path], {"n": n, "values": values, "tris": tris})
        )
    return jobs


# -- domain-pi ----------------------------------------------------------------


def _bin_level(rng: random.Random, rsq: F) -> F:
    """A rational q with q / rsq strictly inside one of the action bins 0..8."""
    m = rng.randint(0, 8)
    return (m + F(rng.randint(5, 95), 100)) * rsq


# Domain job slots.  The seed draws radii, dimensions and levels; the cost
# of each slot is pinned by the ratio that sets its number of strata (R / r,
# or tmax / r^2) and by its M, so every seed gets the same spread of costs.
# More than half the jobs are the cheap ones (ball invariants, eigen and cone
# counts, unobstructed checks), so the median job falls inside that cluster
# rather than on the step between it and the expensive jobs.
NONSQUEEZE_R_OVER_R2 = (0, 0, 8, 12, 16, 20)      # 0: unobstructed (r1 <= r2)
ELLIPSOID_R_OVER_R = (3, 6, 9, 12)
TMAX_STRATA = {"ball": (150, 300), "ellipsoid": (120, 240)}
EIGEN_M = (32, 32, 32, 32, 64, 64, 64, 64)
CONE_M = (32, 64)


def domain_pi(rng: random.Random, workdir: str) -> list[Job]:
    jobs = []

    def add(kind, argv, **data):
        k = sum(1 for j in jobs if j.kind == kind)
        jobs.append(Job(f"{kind}-{k:02d}", kind, argv, data))

    for ratio in NONSQUEEZE_R_OVER_R2:
        n = rng.choice((2, 3))
        r2 = rng.choice(DOMAIN_RADII[:-1])
        r1 = rng.choice([r for r in DOMAIN_RADII if (r > r2) == bool(ratio)])
        R = r2 * ratio if ratio else F(rng.choice((8, 10, 12)))
        add("nonsqueeze", ["nonsqueeze", "--n", str(n), "--r1", str(r1), "--r2", str(r2), "--R", str(R)],
            n=n, r1=r1, r2=r2, R=R)
    for _ in range(8):
        n, r = rng.choice((1, 2, 3)), rng.choice(DOMAIN_RADII)
        q = _bin_level(rng, r * r)
        add("ball-invariant", ["domain", "ball", "--n", str(n), "--r", str(r), "--invariant", f"{q}pi"],
            n=n, r=r, q=q)
    for ratio in ELLIPSOID_R_OVER_R:
        n, r = rng.choice((2, 3)), rng.choice(DOMAIN_RADII)
        R = r * ratio
        q = _bin_level(rng, r * r)
        add("ellipsoid-invariant",
            ["domain", "ellipsoid", "--n", str(n), "--r", str(r), "--R", str(R), "--invariant", f"{q}pi"],
            n=n, r=r, R=R, q=q)
    for strata in TMAX_STRATA["ball"]:
        n, r = rng.choice((1, 2)), rng.choice(DOMAIN_RADII)
        tmax = strata * r * r
        add("ball-tmax", ["domain", "ball", "--n", str(n), "--r", str(r), "--tmax", f"{tmax}pi"],
            n=n, r=r, tmax=tmax)
    for strata in TMAX_STRATA["ellipsoid"]:
        n, r = rng.choice((2, 3)), rng.choice(DOMAIN_RADII[:5])
        R = r * rng.choice((2, 3))
        tmax = strata * r * r
        add("ellipsoid-tmax",
            ["domain", "ellipsoid", "--n", str(n), "--r", str(r), "--R", str(R), "--tmax", f"{tmax}pi"],
            n=n, r=r, R=R, tmax=tmax)
    for M in EIGEN_M:
        n, r = rng.choice((1, 2, 3)), rng.choice(DOMAIN_RADII)
        T = _eigen_level(rng, [r * r])
        add("eigen", ["domain", "ball", "--n", str(n), "--r", str(r), "--eigen", str(T), "--M", str(M)],
            n=n, r=r, T=T, M=M)
    for M in CONE_M:
        n, r = rng.choice((1, 2, 3)), rng.choice(DOMAIN_RADII)
        c = F(rng.randint(30, 95), 100)
        T = _eigen_level(rng, [c * r * r, r * r])
        add("cone", ["domain", "ball", "--n", str(n), "--r", str(r), "--c", str(c), "--cone", str(T), "--M", str(M)],
            n=n, r=r, c=c, T=T, M=M)
    return jobs


# Rational bounds around pi, independent of the enclosure in
# sheafcalc.exactnum.  Levels kept 2/100 of a bin away from the spectrum fall
# in the same bin for either bound and for pi itself.
PI_BELOW = F(314159265358979, 10**14)
PI_ABOVE = PI_BELOW + F(1, 10**14)


def _eigen_level(rng: random.Random, rsqs: list) -> F:
    """Rational T in bin 0..3 of rsqs[0], at least 2/100 of a bin away from
    the spectrum of every radius in rsqs (M >= 32 steps stay fine enough)."""
    while True:
        m = rng.randint(0, 3)
        T = ((m + F(rng.randint(5, 95), 100)) * PI_BELOW * rsqs[0]).limit_denominator(10**6)
        fracs = [T / (PI_BELOW * rsq) % 1 for rsq in rsqs]
        if all(F(2, 100) < x < F(98, 100) for x in fracs):
            return T


# The kind of job each workload's cold start runs.
REFERENCE_KIND = {
    "ops-bilinear": "convolve",
    "dist-bottleneck": "dist",
    "morse-persistence": "sublevel",
    "domain-pi": "eigen",
}


def reference_job(workload: str, jobs: list) -> Job:
    """The middle job, by key, of the workload's reference kind."""
    same = sorted((j for j in jobs if j.kind == REFERENCE_KIND[workload]), key=lambda j: j.key)
    return same[len(same) // 2]

WORKLOADS = {
    "ops-bilinear": ops_bilinear,
    "dist-bottleneck": dist_bottleneck,
    "morse-persistence": morse_persistence,
    "domain-pi": domain_pi,
}


def make_jobs(workload: str, seed: int, workdir: str) -> list[Job]:
    """Write the workload's input files under workdir; return its job list.

    The returned order interleaves job kinds and sizes, so that a timed loop
    cut short at any point has run a representative mix.
    """
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng, workdir)
    rng.shuffle(jobs)
    return jobs
