"""pobsim: behavior-weighted consensus simulator with a PoS baseline."""

from .config import ScenarioConfig, load_config
from .netsim import run_trial
from .experiments import run_scenario, run_sweep

__version__ = "0.1.0"

__all__ = [
    "ScenarioConfig",
    "load_config",
    "run_trial",
    "run_scenario",
    "run_sweep",
    "__version__",
]
