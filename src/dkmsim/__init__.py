"""Distributed fixed-point iteration over time-varying directed graphs.

N agents each hold a nonexpansive local operator F_i on R^n and cooperate
to find a fixed point of the global average F = (1/N) sum_i F_i. Each
synchronous round mixes neighbor states through a doubly stochastic graph
and takes a damped local operator step; a block-sampled variant updates one
randomly drawn coordinate block per round. The package bundles the operator
catalog, graph schedules with assumption checkers, the iteration engine,
convergence diagnostics, reference oracles, and a CLI.
"""

from .blocks import BlockPartition
from .config import (
    load_config,
    save_config,
    scenario_from_config,
    scenario_to_config,
    trace_path_from_config,
)
from .diagnostics import (
    RECORD,
    Trace,
    TraceRecord,
    consensus_residual,
    distance_to_reference,
    fit_consensus_rate,
    fixed_point_residual,
    mean_state,
    weighted_block_norm,
)
from .engine import (
    BlockSelector,
    RunConfig,
    UniformInit,
    centralized_km,
    dbkm_step,
    dkm_step,
    draw_block,
    initial_states,
    run,
    validate_full,
    validate_run,
)
from .errors import (
    AssumptionError,
    BlockIndexError,
    ConfigError,
    DimensionMismatchError,
    DivergenceError,
    DkmsimError,
    NonFiniteError,
    OracleError,
    ParameterError,
)
from .graphs import (
    GraphSchedule,
    check_doubly_stochastic,
    check_q_strong_connectivity,
    check_weight_floor,
    mix,
    ring_schedule,
    strongly_connected,
    validate_schedule,
)
from .operators import (
    Affine,
    Ball,
    Box,
    GradientStep,
    Huber,
    Identity,
    OperatorFamily,
    Projection,
    Quadratic,
    check_nonexpansive,
    estimate_displacement_bound,
    uniform_box_sampler,
)
from .scenarios import (
    PRESET_NAMES,
    Scenario,
    build_consensus_scenario,
    build_dgd_scenario,
    build_distance_scenario,
    build_linear_scenario,
    build_preset,
    oracle_distance_minimizer,
    oracle_least_squares_minimizer,
    oracle_linear_solve,
    oracle_smooth_minimizer,
    random_linear_instance,
    staircase_boxes,
)
from .stepsize import PowerLawStepsize, check_stepsize_conditions
from .tracefile import read_trace, snapshot_path_for, write_trace
from .validation import ValidationReport, Violation

__version__ = "0.1.0"
