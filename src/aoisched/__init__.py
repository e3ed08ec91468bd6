"""Transmission scheduling for periodic status updates over a two-state
fading channel: belief-MDP and delayed-CSI solvers, a slot-level simulator,
and an experiment sweep CLI."""

from .channel import (
    Belief,
    BeliefOrigin,
    BeliefTable,
    ChannelModel,
    belief_table,
    one_step_update,
    stationary_good_probability,
)
from .mdp import (
    Case,
    CompiledKernel,
    DelayedSpace,
    FrameSpec,
    NoSensingSpace,
    TruncationBound,
    build_case,
)
from .sim import SimConfig, SimResult, estimate_mixture, simulate, simulate_greedy
from .solver import (
    MixturePolicy,
    SolveReport,
    TabularPolicy,
    ThresholdPolicyAoI,
    ThresholdPolicyBelief,
    bisect_lambda,
    discounted_vi,
    dual_value_sweep,
    policy_averages,
    randomization_factor,
    rvi_plain,
    rvi_threshold_delayed,
    rvi_threshold_no_sensing,
)

__version__ = "0.1.0"
