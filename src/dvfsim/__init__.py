"""Energy, temperature, and wear co-simulation for a DVFS processor.

Quantifies how direct vs. step-based frequency transitions trade energy
consumption against component lifetime under deadline-constrained workloads.
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
    policy_label,
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
    energy_cost,
    validate_spec,
)
from .reporting import (
    write_comparison,
    write_report,
    write_trace,
)
from .thermal import (
    Segment,
    SteadyState,
    ThermalParams,
    WearLedger,
    project_lifetime,
    steady_state_temp,
)
from .transitions import (
    Hop,
    TransitionPolicy,
    WearParams,
    full_span,
    plan_transition,
    shock_wear,
)
from .workload import (
    GovernorPolicy,
    Task,
    governor_rule,
    lowest_feasible_level,
    min_energy_level,
    select_level,
)

__version__ = "0.1.0"
