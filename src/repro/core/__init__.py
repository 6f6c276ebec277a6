"""Experiment core: the matrix runner and the COST analysis.

The root re-exports only :mod:`.runner` and :mod:`.cost`, whose imports
all sit on the cell path. The analysis-only modules (``findings``,
``scalability``, ``sensitivity``, ``tuning``, ``vertical_scaling``,
``weak_scaling``) are imported from the module that defines each name.
"""

from .cost import CostRow, cost_experiment, cost_factor
from .runner import ExperimentSpec, ResultGrid, paper_grid, run_cell, run_grid

__all__ = [
    "ExperimentSpec",
    "ResultGrid",
    "run_cell",
    "run_grid",
    "paper_grid",
    "CostRow",
    "cost_factor",
    "cost_experiment",
]
