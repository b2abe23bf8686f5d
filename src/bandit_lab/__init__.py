"""Kernelized contextual bandits with online Nystrom sparsification."""

from .config import RunConfig, build_run_config, parse_config_text
from .dictionary import Dictionary, KorsParams, kors_step, leverage_score, projection_error
from .diagnostics import (
    ComplexityReport,
    CoverageConfig,
    complexity_report,
    coverage_test,
    effective_dimension,
    information_gain,
    prop1_bound,
    valko_dimension,
)
from .environments import Environment, EnvSpec, RoundOutcome
from .harness import RunRecord, SweepCell, emit_outputs, run_single, run_sweep
from .kernels import KernelSpec, StatePoint, evaluate, gram_packed
from .linalg import (
    SpdInverse,
    dense_spd_inverse,
    log_det_ratio,
    schur_extend,
    sherman_morrison_update,
)
from .policies import (
    ExactKernelUcb,
    ExplorationSchedule,
    ProjectedKernelUcb,
    ResamplingKernelUcb,
    UniformRandomPolicy,
    theoretical_beta,
)

__all__ = [
    "ComplexityReport",
    "CoverageConfig",
    "Dictionary",
    "EnvSpec",
    "Environment",
    "ExactKernelUcb",
    "ExplorationSchedule",
    "KernelSpec",
    "KorsParams",
    "ProjectedKernelUcb",
    "ResamplingKernelUcb",
    "RoundOutcome",
    "RunConfig",
    "RunRecord",
    "SpdInverse",
    "StatePoint",
    "SweepCell",
    "UniformRandomPolicy",
    "build_run_config",
    "complexity_report",
    "coverage_test",
    "dense_spd_inverse",
    "effective_dimension",
    "emit_outputs",
    "evaluate",
    "gram_packed",
    "information_gain",
    "kors_step",
    "leverage_score",
    "log_det_ratio",
    "parse_config_text",
    "projection_error",
    "prop1_bound",
    "run_single",
    "run_sweep",
    "schur_extend",
    "sherman_morrison_update",
    "theoretical_beta",
    "valko_dimension",
]
