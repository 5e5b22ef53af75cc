"""Smart-charging optimization toolkit.

Models an EV battery's electrical, thermal, and aging behavior and computes
cost-optimal bidirectional charging-power trajectories per charging event
via discrete dynamic programming.
"""

from .aging import AgingParams
from .core import BatteryState, ChargingEvent, CostBreakdown, TimeGrid
from .electrical import EcmTables
from .optimizer import BatteryModels, DdpGrids, DdpSolution, Scenario, solve
from .tariff import PriceProfile
from .thermal import ThermalModel, ThermalPlant

__version__ = "0.1.0"

__all__ = [
    "AgingParams",
    "BatteryModels",
    "BatteryState",
    "ChargingEvent",
    "CostBreakdown",
    "DdpGrids",
    "DdpSolution",
    "EcmTables",
    "PriceProfile",
    "Scenario",
    "ThermalModel",
    "ThermalPlant",
    "TimeGrid",
    "__version__",
    "solve",
]
