"""Exact arithmetic in the ring of the fixed-point scheme of a dual torus
modulo its Weyl group, from root datum and Frobenius data, with independent
counting oracles for every number it produces."""

from .balgebra import (
    BContext,
    BElement,
    GENERIC_SC,
    SO_EVEN,
    build_context,
    gram_discriminant,
    multiply_b,
    normal_form,
    rank,
    reducedness_certificate,
    structure_constants,
    trace_form,
)
from .intlinalg import IntMatrix, det, in_image, snf
from .oracles import TorusPoint, class_count, enumerate_points, evaluate
from .orbitring import InvariantElement, OrbitCache, multiply
from .rootdata import (
    FrobeniusData,
    RootDatum,
    build_standard,
    weyl_group,
)

__all__ = [
    "BContext",
    "BElement",
    "GENERIC_SC",
    "SO_EVEN",
    "FrobeniusData",
    "IntMatrix",
    "InvariantElement",
    "OrbitCache",
    "RootDatum",
    "TorusPoint",
    "build_context",
    "build_standard",
    "class_count",
    "det",
    "enumerate_points",
    "evaluate",
    "gram_discriminant",
    "in_image",
    "multiply",
    "multiply_b",
    "normal_form",
    "rank",
    "reducedness_certificate",
    "snf",
    "structure_constants",
    "trace_form",
    "weyl_group",
]
