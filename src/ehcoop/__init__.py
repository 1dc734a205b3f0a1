"""Offline sum-throughput optimization for energy-harvesting networks
with bi-directional energy cooperation."""

from .model import (
    INFINITE,
    BatteryTrace,
    DecomposedPolicy,
    FeasibilityReport,
    InfeasiblePolicyError,
    InputError,
    ModelKind,
    Scenario,
    TransferPolicy,
    battery_trace,
    check_feasible,
    check_partially_procrastinating,
    check_procrastinating,
    decompose,
    objective,
    procrastinate_transform,
    rate,
    recover_transmit_powers,
)
from .transfer import (
    Regime,
    SlotTransfer,
    slot_transfer,
    water_level,
)
from .waterfill import (
    CooperationMode,
    SolveReport,
    bcd_solve,
    mac_solve,
    solve,
    staircase,
)
from .oracle import DpConfig, dp_solve, grid_transfer_max
from .baselines import BaselineKind, constant_power
from .harness import (
    SweepRow,
    SweepSpec,
    emit,
    load_scenario,
    run_sweep,
)

__version__ = "0.1.0"
