"""Energy-optimal downlink coordination between a macro base station and small cells."""

from .coordination import (CoordinationProblem, classify_assignment,
                           solve_optimal, verify_duality)
from .evaluation import evaluate
from .power import HardwareProfile, dynamic_power
from .rzf import rzf_solve
from .scenario import ScenarioConfig, load_config, realize_scenario

__version__ = "0.1.0"

__all__ = [
    "CoordinationProblem",
    "HardwareProfile",
    "ScenarioConfig",
    "classify_assignment",
    "dynamic_power",
    "evaluate",
    "load_config",
    "realize_scenario",
    "rzf_solve",
    "solve_optimal",
    "verify_duality",
    "__version__",
]
