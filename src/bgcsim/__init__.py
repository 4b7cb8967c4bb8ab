"""Deterministic simulator and bounds toolkit for Byzantine-resilient gradient coding."""

from .adversary import (
    CallbackAdversary,
    ClaimedGradientTable,
    FlipFlopAdversary,
    NoAdversary,
    SymmetrizationAdversary,
    TableAdversary,
    World,
    symmetrization_attack,
    two_case_worlds,
)
from .bounds import (
    BoundsReport,
    Witness,
    comm_lower,
    disagreement_coverage_check,
    draco_baseline,
    indistinguishability_check,
    local_comp_lower,
    ratio_limit,
    run_trial,
    scheme_upper_bounds,
)
from .core import (
    SchemeParams,
    build_fractional_repetition,
    full_gradient,
    random_gradients,
    replication_factor,
)
from .protocol import Metrics, ProtocolRun, Transcript

__all__ = [
    "BoundsReport",
    "CallbackAdversary",
    "ClaimedGradientTable",
    "FlipFlopAdversary",
    "Metrics",
    "NoAdversary",
    "ProtocolRun",
    "SchemeParams",
    "SymmetrizationAdversary",
    "TableAdversary",
    "Transcript",
    "Witness",
    "World",
    "build_fractional_repetition",
    "comm_lower",
    "disagreement_coverage_check",
    "draco_baseline",
    "full_gradient",
    "indistinguishability_check",
    "local_comp_lower",
    "random_gradients",
    "ratio_limit",
    "replication_factor",
    "run_trial",
    "scheme_upper_bounds",
    "symmetrization_attack",
    "two_case_worlds",
]
