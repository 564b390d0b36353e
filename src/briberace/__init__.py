"""Bribery-attack analysis for proof-of-work fork races.

An absorbing Markov chain over the fork-length gap prices per-state bribes
for rational miners, evaluates four attacker strategies, and validates every
analytic figure against an independent event-level simulator.
"""

from .model import (
    DUST,
    Miner,
    MinerSet,
    PoolFileError,
    Scenario,
    ScenarioError,
    load_pool_distribution,
    make_scenario,
)
from .markov import (
    AbsorbingChain,
    AbsorptionAnalysis,
    ChainError,
    RaceSolution,
    analyze,
    catchup_prob,
    extend_fork_power,
    solve_race,
    solve_starts,
)
from .rationality import (
    RationalityError,
    basic_threshold,
    crb_min_constant,
    persuadable_grid_floor,
    persuadable_threshold,
    settled_bribe,
)
from .strategies import (
    BribeSchedule,
    MembershipMatrix,
    StrategyError,
    StrategyOutcome,
    evaluate_schedule,
    gvc_new_markov,
    optimize_gvc,
    recapture_split,
    run_bff,
    run_bs,
    run_crb,
    run_gvc,
    sweep_bff,
    sweep_bs,
    sweep_crb,
)
from .simulate import (
    ComparisonReport,
    RacePolicy,
    SimConfig,
    SimReport,
    SimulationError,
    compare_reports,
    simulate_race,
)

__version__ = "0.1.0"
