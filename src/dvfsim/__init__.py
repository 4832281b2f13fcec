"""Energy, temperature, and wear co-simulation for a DVFS processor.

Quantifies how direct vs. step-based frequency transitions trade energy
consumption against component lifetime under deadline-constrained workloads.
Exports the names README's "Python API" documents; the rest live in their modules.
"""

from .engine import (
    ComparisonReport,
    PolicyOutcome,
    Scenario,
    SimReport,
    TaskOutcome,
    TracePoint,
    TransitionEvent,
    compare_policies,
    run_scenario,
    simulate,
)
from .config import load_scenario, parse_scenario
from .errors import (
    DomainError,
    InfeasibleError,
    PolicyRunError,
    ScenarioError,
    UnknownLevelError,
)
from .power import (
    EnergyBreakdown,
    FrequencyLevel,
    ProcessorSpec,
    Violation,
    validate_spec,
)
from .reporting import (
    write_comparison,
    write_report,
)
from .thermal import (
    SteadyState,
    ThermalParams,
    WearLedger,
)
from .transitions import (
    Hop,
    TransitionPolicy,
    WearParams,
    plan_transition,
)
from .workload import (
    GovernorPolicy,
    Task,
    governor_rule,
)

__version__ = "0.1.0"
