"""Exact workbench for robust implementation with costly information
acquisition: mechanism builders, perturbed games, and equilibrium and
dominance verification by finite computation."""

from .core import (
    AgentPayoff,
    Lottery,
    ModelError,
    OutcomeSpace,
    ScenarioModel,
    SocialChoiceFunction,
    StateSpace,
    binary_trial_scenario,
    four_state_scenario,
    is_generic,
    is_nonconstant,
    make_scenario,
    three_state_scenario,
    tv_distance,
)
from .engine import (
    Game,
    SignalStructure,
    TrembleSpec,
    canonical_replacement,
    full_strategy_set,
    implementation_metrics,
    mislabel_signals,
    outcome_distribution,
    restricted_strategy_set,
    revealing_signals,
    size_of_signal_structure,
    truthful_profile,
)
from .experiments import (
    Certificate,
    ExperimentResult,
    check_strict_cyclical_monotonicity,
    deviation_dominance_certificate,
    list_experiments,
    run_experiment,
    separating_functional,
)
from .equilibrium import (
    BRIterationResult,
    DominanceCertificate,
    EliminationResult,
    EquilibriumReport,
    gamma_dominance_threshold,
    iterate_best_response,
    iterated_dominance,
    support_enumeration_nash,
    verify_equilibrium,
)
from .loader import ScenarioFileError, load_scenario, parse_scenario
from .mechanisms import (
    InfeasibleScheduleError,
    Mechanism,
    RewardSchedule,
    build_augmented_status_quo,
    build_maskin,
    build_modified_status_quo,
    build_one_respondent,
    build_status_quo,
    check_reward_constraints,
    export_mechanism,
    solve_rewards,
)
from .perturbations import (
    BiasSpec,
    Perturbation,
    build_general_ladder,
    build_ladder,
    eta_of,
    is_c_bounded,
    unperturbed,
)

__version__ = "0.1.0"
