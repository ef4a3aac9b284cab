"""fitguide: fixed-impact-time optimal interception guidance toolkit.

Capabilities: closed-form costate-parameterized extremals, optimal-command
dataset generation, a from-scratch feedforward command network, an
independent boundary-value oracle, a proportional-navigation baseline,
and closed-loop engagement simulation (single and salvo).
"""

from .kinematics import (
    CartesianState,
    PolarState,
    cartesian_to_polar,
    step_cartesian,
    wrap_angle,
)
from .extremals import (
    AdjointParams,
    ParamTrajectory,
    hamiltonian,
    propagate_param,
    terminal_time,
)
from .datagen import (
    DatagenConfig,
    REDUCED_CONFIG,
    generate_dataset,
    read_dataset,
    write_dataset,
)
from .mlp import (
    CommandModel,
    TrainConfig,
    TrainReport,
    TrainingDivergedError,
    forward,
    forward_batch,
    load_model,
    save_model,
    train,
)
from .guidance import (
    GuidanceError,
    GuidanceQuery,
    OracleSolution,
    command_nn,
    command_oracle,
    pn_command,
)
from .sim import (
    Scenario,
    SimResult,
    export_trajectory,
    salvo,
    salvo_summary,
    simulate,
    solve_ocp,
)

__version__ = "0.1.0"

__all__ = [
    "CartesianState",
    "PolarState",
    "cartesian_to_polar",
    "step_cartesian",
    "wrap_angle",
    "AdjointParams",
    "ParamTrajectory",
    "hamiltonian",
    "propagate_param",
    "terminal_time",
    "DatagenConfig",
    "REDUCED_CONFIG",
    "generate_dataset",
    "read_dataset",
    "write_dataset",
    "CommandModel",
    "TrainConfig",
    "TrainReport",
    "TrainingDivergedError",
    "forward",
    "forward_batch",
    "load_model",
    "save_model",
    "train",
    "GuidanceError",
    "GuidanceQuery",
    "OracleSolution",
    "command_nn",
    "command_oracle",
    "pn_command",
    "Scenario",
    "SimResult",
    "export_trajectory",
    "salvo",
    "salvo_summary",
    "simulate",
    "solve_ocp",
    "__version__",
]
