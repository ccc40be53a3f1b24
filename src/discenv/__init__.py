"""Numerical disc-functional envelopes and plurisubharmonic subextensions."""

from .discs import (
    AnalyticDisc,
    DiscLoop,
    cesaro_mean,
    outer_function,
    winding_number,
)
from .domains import (
    DomainSpec,
    Obstacle,
    ball,
    counterexample_pair,
    planar_annulus_pair,
    shell_disc,
    shell_pair,
)
from .envelope import (
    EnvelopeRequest,
    EnvelopeResult,
    minimize_envelope,
    partial_envelope,
)
from .families import (
    BlaschkeFamily,
    ConstantFamily,
    DiscFamily,
    PolynomialFamily,
    ShellFamily,
    VerticalFamily,
)
from .functionals import QuadratureGrid, partial_boundary_stats, \
    poisson_functional
from .hartogs import (
    HartogsPair,
    classify_component,
    hartogs_homotopy,
    homotopy_trace,
    vertical_disc,
)
from .oracles import (
    GridField,
    grid_obstacle_solver,
    kiselman_psi,
    submean_check,
)

__all__ = [
    "AnalyticDisc", "DiscLoop", "cesaro_mean", "outer_function",
    "winding_number",
    "DomainSpec", "Obstacle", "ball", "counterexample_pair",
    "planar_annulus_pair", "shell_disc", "shell_pair",
    "EnvelopeRequest", "EnvelopeResult", "minimize_envelope",
    "partial_envelope",
    "BlaschkeFamily", "ConstantFamily", "DiscFamily", "PolynomialFamily",
    "ShellFamily", "VerticalFamily",
    "QuadratureGrid", "partial_boundary_stats", "poisson_functional",
    "HartogsPair", "classify_component", "hartogs_homotopy",
    "homotopy_trace", "vertical_disc",
    "GridField", "grid_obstacle_solver", "kiselman_psi", "submean_check",
]
