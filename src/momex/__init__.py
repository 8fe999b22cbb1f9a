"""Normalized stochastic gradient methods with multi-extrapolated momentum.

Submodules: schedule (per-iteration parameter rules and their closed
forms), problems (benchmark objectives, noise model, datasets), optimizer
(the step kernel and run loop), verify (independent oracles for every
identity and bound), harness (CLI and experiment plumbing).
"""

from .optimizer import (
    AlgorithmKind,
    OptimizerState,
    RunResult,
    TrajectoryRecord,
    mem,
    nigt,
    run,
    select_output_iterate,
    sg,
    sg_pm,
)
from .problems import (
    Dataset,
    DatasetFormatError,
    NoiseModel,
    ProblemConstants,
    SmoothProblem,
    datafit_problem,
    dataset_to_csv,
    generate_synthetic,
    load_csv_dataset,
    quadratic_problem,
    robust_problem,
    save_dataset,
    stochastic_grad,
)
from .schedule import (
    ParamsBlock,
    ScheduleConfig,
    init_params,
    iteration_threshold,
    params_block,
    params_for,
    params_general,
    potential_weight,
    solve_weights_closed_form,
    theorem_constant,
)
from .verify import (
    CheckReport,
    IllConditionedSystem,
    params_p3,
    solve_weights_linear,
    validate,
    weight_sum_closed_form,
)
from .harness import ConfigError, RunConfig, compare, parse_config, run_experiment

__version__ = "0.1.0"

__all__ = [
    "AlgorithmKind",
    "CheckReport",
    "ConfigError",
    "Dataset",
    "DatasetFormatError",
    "IllConditionedSystem",
    "NoiseModel",
    "OptimizerState",
    "ParamsBlock",
    "ProblemConstants",
    "RunConfig",
    "RunResult",
    "ScheduleConfig",
    "SmoothProblem",
    "TrajectoryRecord",
    "compare",
    "datafit_problem",
    "dataset_to_csv",
    "generate_synthetic",
    "init_params",
    "iteration_threshold",
    "load_csv_dataset",
    "mem",
    "nigt",
    "params_block",
    "params_for",
    "params_general",
    "params_p3",
    "parse_config",
    "potential_weight",
    "quadratic_problem",
    "robust_problem",
    "run",
    "run_experiment",
    "save_dataset",
    "select_output_iterate",
    "sg",
    "sg_pm",
    "solve_weights_closed_form",
    "solve_weights_linear",
    "stochastic_grad",
    "theorem_constant",
    "validate",
    "weight_sum_closed_form",
    "__version__",
]
