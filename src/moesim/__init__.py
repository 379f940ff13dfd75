"""moesim: batch off-policy evaluation with a mixture-of-experts simulator.

Rollouts under the evaluation policy are generated by switching, per step,
between a learned parametric dynamics model and a nearest-neighbor
nonparametric model, either greedily by local error estimates or by UCT
planning against the return-error bound.
"""

__version__ = "0.1.0"

from .core import (
    Dataset,
    Metric,
    Policy,
    Trajectory,
    Transition,
    trajectory_return,
)
from .errors import (
    BoundParams,
    ErrorEstimate,
    LipschitzEstimates,
    choose_radius,
    global_lipschitz,
    np_error_estimate,
    p_error_estimate,
)
from .models import (
    NONPARAMETRIC,
    PARAMETRIC,
    DynamicsModel,
    FunctionModel,
    MLPModel,
    NonparametricModel,
    NoSupportError,
    RidgePerActionModel,
)
from .selection import (
    SelectionContext,
    greedy_select,
    mcts_select,
)
from .simulator import (
    SimConfig,
    ValueEstimate,
    evaluate_policy_true,
    simulate_value,
    trajectory_error,
)
from .baselines import ISInput, ModelValueFunctions, is_estimate

__all__ = [
    "Dataset",
    "Metric",
    "Policy",
    "Trajectory",
    "Transition",
    "trajectory_return",
    "BoundParams",
    "ErrorEstimate",
    "LipschitzEstimates",
    "choose_radius",
    "global_lipschitz",
    "np_error_estimate",
    "p_error_estimate",
    "NONPARAMETRIC",
    "PARAMETRIC",
    "DynamicsModel",
    "FunctionModel",
    "MLPModel",
    "NonparametricModel",
    "NoSupportError",
    "RidgePerActionModel",
    "SelectionContext",
    "greedy_select",
    "mcts_select",
    "SimConfig",
    "ValueEstimate",
    "evaluate_policy_true",
    "simulate_value",
    "trajectory_error",
    "ISInput",
    "ModelValueFunctions",
    "is_estimate",
]
