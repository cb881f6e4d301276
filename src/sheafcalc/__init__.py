"""Exact barcode calculus for constructible sheaves on the real line."""

from .exactnum import NEG_INF, POS_INF, PiRational, cmp, parse_scalar
from .intervals import (
    EMPTY,
    Endpoint,
    GradedBar,
    GradedBarcode,
    HomSpace,
    Interval,
    bar,
    barcode,
    barcode_from_json,
    barcode_to_json,
    canonicalize,
    convert_convention,
    expanded_bars,
    interval,
    ray_sections,
    reflect_barcode,
    singleton,
    spec,
    ss_describe,
    stalk,
)
from .metrics import (
    Matching,
    MorphismPlan,
    bottleneck,
    bottleneck_matching,
    brute_interleave,
    cone_of_morphism,
    delta_matched,
    interleaving_distance,
    torsion_bound_check,
)
from .ops import (
    adjoint,
    capacity,
    capacity_prime,
    convolve,
    convolve_np,
    hom_star,
    rhom_sheaf,
    rhom_total,
    shift_deg,
    shift_t,
    stalk_oracle,
    tau_rank,
    torsion,
)
from .stratmodel import StratModel, decompose, from_barcode, rhom_oracle

__version__ = "0.1.0"
