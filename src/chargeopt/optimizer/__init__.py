"""Discrete dynamic programming solver for charging-power trajectories."""

from .backend import HAVE_COMPILED, active_backend, backward_pass
from .scenario import (
    BatteryModels,
    DdpGrids,
    Scenario,
    build_grids,
    load_scenario_json,
    make_range,
    nearest_index,
    nearest_indices,
    save_scenario_json,
    scenario_from_dict,
    scenario_to_dict,
)
from .solver import (
    DdpSolution,
    backward_induction,
    forward_integration,
    replay,
    save_solution_csv,
    solve,
)
from .transitions import TransitionTable, build_transition_table, clear_table_cache

__all__ = [
    "BatteryModels",
    "DdpGrids",
    "DdpSolution",
    "HAVE_COMPILED",
    "Scenario",
    "TransitionTable",
    "active_backend",
    "backward_induction",
    "backward_pass",
    "build_grids",
    "build_transition_table",
    "clear_table_cache",
    "forward_integration",
    "load_scenario_json",
    "make_range",
    "nearest_index",
    "nearest_indices",
    "replay",
    "save_scenario_json",
    "save_solution_csv",
    "scenario_from_dict",
    "scenario_to_dict",
    "solve",
]
