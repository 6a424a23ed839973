"""Rule-based optimizer: classical rewrites plus the paper's fusion rules."""

from repro.optimizer.config import BASELINE, FUSION, OptimizerConfig
from repro.optimizer.context import OptimizerContext
from repro.optimizer.pipeline import build_pipeline, optimize
from repro.optimizer.rule import PlanPass, RewriteRule

__all__ = [
    "OptimizerConfig",
    "BASELINE",
    "FUSION",
    "OptimizerContext",
    "optimize",
    "build_pipeline",
    "PlanPass",
    "RewriteRule",
]
