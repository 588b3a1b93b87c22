"""First-order convex optimization with certified perturbed-duality gaps."""

from ._kernels import IMPLEMENTATION as kernel_implementation
from .engine import certificate, segment_excess
from .linalg import LinearMap
from .methods import (
    ConditionalSubgradient,
    FastGradient,
    ProxGradient,
    ProxSubgradient,
    UniversalGradient,
    run,
)
from .oracles import ProblemInstance, SmoothOracle
from .problems import make_instance, reference_optimum, verify_constants
from .prox import prox_step

__all__ = [
    "ConditionalSubgradient", "FastGradient", "LinearMap", "ProblemInstance",
    "ProxGradient", "ProxSubgradient", "SmoothOracle", "UniversalGradient",
    "certificate", "kernel_implementation", "make_instance",
    "prox_step", "reference_optimum", "run", "segment_excess",
    "verify_constants",
]

__version__ = "0.1.0"
