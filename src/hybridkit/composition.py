"""Structural operators on hybrid systems: restriction, cascades, outputs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import HybridSystem
from .errors import DimensionMismatch
from .geometry import ClosedSet, inflate, intersect, product

#: numerical band representing membership of the restriction set; pure
#: tol_set (1e-9) would flag integration drift along invariant sets as exit
RESTRICTION_BAND = 1e-6


def restrict(sys: HybridSystem, gamma: ClosedSet) -> HybridSystem:
    """Restriction to a closed set: (C n Gamma, F, D n Gamma, G).

    The intersection is represented numerically as C n {dist_Gamma <=
    RESTRICTION_BAND}; the composite distances are lower bounds, so analyses
    on restricted systems measure against the original sets, never these.
    """
    if gamma.dim != sys.dim:
        raise DimensionMismatch(
            f"restriction set has dim {gamma.dim}, system has dim {sys.dim}"
        )
    band_set = inflate(gamma, RESTRICTION_BAND)
    band_set.name = f"band[{gamma.name}]"
    return HybridSystem(
        dim=sys.dim,
        flow_set=intersect(sys.flow_set, band_set),
        flow_map=sys.flow_map,
        jump_set=intersect(sys.jump_set, band_set),
        jump_map=sys.jump_map,
        name=f"{sys.name}|{gamma.name}",
        state_sampler=sys.state_sampler,
        discrete_coords=sys.discrete_coords,
    )


@dataclass(frozen=True)
class CascadeSpec:
    """Upper-triangular cascade data: block x1 driven by block x2.

    F1, G1 take (x1, x2); F2, G2 take x2 alone.
    """

    n1: int
    n2: int
    f1: Callable[[np.ndarray, np.ndarray], np.ndarray]
    f2: Callable[[np.ndarray], np.ndarray]
    g1: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g2: Callable[[np.ndarray], np.ndarray]
    c1: ClosedSet
    c2: ClosedSet
    d1: ClosedSet
    d2: ClosedSet
    name: str = "cascade"

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise DimensionMismatch("cascade blocks must have positive dims")
        for s, n, label in ((self.c1, self.n1, "c1"), (self.d1, self.n1, "d1"),
                            (self.c2, self.n2, "c2"), (self.d2, self.n2, "d2")):
            if s.dim != n:
                raise DimensionMismatch(f"{label} has dim {s.dim}, expected {n}")


def build_cascade(spec: CascadeSpec) -> HybridSystem:
    """Stacked system on R^{n1+n2}: product sets, block-triangular maps."""
    n1 = spec.n1

    def flow(x):
        x1, x2 = x[:n1], x[n1:]
        return np.concatenate([
            np.atleast_1d(np.asarray(spec.f1(x1, x2), dtype=float)),
            np.atleast_1d(np.asarray(spec.f2(x2), dtype=float)),
        ])

    def jump(x):
        x1, x2 = x[:n1], x[n1:]
        return np.concatenate([
            np.atleast_1d(np.asarray(spec.g1(x1, x2), dtype=float)),
            np.atleast_1d(np.asarray(spec.g2(x2), dtype=float)),
        ])

    return HybridSystem(
        dim=n1 + spec.n2,
        flow_set=product(spec.c1, spec.c2),
        flow_map=flow,
        jump_set=product(spec.d1, spec.d2),
        jump_map=jump,
        name=spec.name,
    )


def subsystem_h1(spec: CascadeSpec) -> HybridSystem:
    """Driven block with the driver frozen at zero: (C1, F1(.,0), D1, G1(.,0))."""
    zero = np.zeros(spec.n2)

    def flow(x1):
        return np.atleast_1d(np.asarray(spec.f1(x1, zero), dtype=float))

    def jump(x1):
        return np.atleast_1d(np.asarray(spec.g1(x1, zero), dtype=float))

    return HybridSystem(
        dim=spec.n1,
        flow_set=spec.c1,
        flow_map=flow,
        jump_set=spec.d1,
        jump_map=jump,
        name=f"{spec.name}-h1",
    )


def subsystem_h2(spec: CascadeSpec) -> HybridSystem:
    """The driving block as a hybrid system in its own right."""
    return HybridSystem(
        dim=spec.n2,
        flow_set=spec.c2,
        flow_map=lambda x2: np.atleast_1d(np.asarray(spec.f2(x2), dtype=float)),
        jump_set=spec.d2,
        jump_map=lambda x2: np.atleast_1d(np.asarray(spec.g2(x2), dtype=float)),
        name=f"{spec.name}-h2",
    )


@dataclass(frozen=True)
class OutputSystem:
    """A hybrid system with a continuous output map attached.

    Outputs are evaluated on states, not state-augmented, so event detection
    is untouched.
    """

    sys: HybridSystem
    h: Callable[[np.ndarray], np.ndarray]

    def output(self, x) -> np.ndarray:
        """h at one state, as a 1-D array."""
        return np.atleast_1d(np.asarray(self.h(np.asarray(x, dtype=float)), dtype=float))


def with_output(sys: HybridSystem, h: Callable) -> OutputSystem:
    return OutputSystem(sys, h)
