"""Kernelized contextual bandits with online Nystrom sparsification.

The root exports the names the README's "Library use" section documents;
everything else is imported from its own module.
"""

from .dictionary import KorsParams, projection_error
from .environments import Environment, EnvSpec
from .kernels import KernelSpec, StatePoint, gram_packed
from .policies import ExactKernelUcb, ExplorationSchedule, ProjectedKernelUcb

__all__ = [
    "EnvSpec",
    "Environment",
    "ExactKernelUcb",
    "ExplorationSchedule",
    "KernelSpec",
    "KorsParams",
    "ProjectedKernelUcb",
    "StatePoint",
    "gram_packed",
    "projection_error",
]
