"""Steady states, thermodynamics, and correlations of a three-qubit machine
coupled to three baths, under either a harmonic-bath (global) or a
repeated-interaction (local) master equation.
"""

from .errors import (
    ClusteringError,
    DegenerateSteadyStateError,
    DomainError,
    ExactCurrentsWarning,
    ImpossibleCurrentsError,
    NumericalConsistencyError,
    SecularValidityWarning,
    TriqubitError,
    ZeroModeWarning,
)
from .model import (
    BATH_HARMONIC,
    BATH_REPEATED_INTERACTION,
    PAIRS,
    Generators,
    ModelParams,
    Spectrum,
    build_hamiltonian,
    sector_spectrum,
)
from .global_me import (
    bose_occupation,
    build_global_generators,
    global_heat_current,
    jump_operators,
)
from .local_me import (
    CurrentSet,
    build_local_generators,
    local_current_set,
    local_heat_current,
)
from .steady_state import (
    PointSolution,
    SteadyStateResult,
    build_liouvillian,
    evolve_oracle,
    relaxation_time,
    solve_point,
    steady_state_via_evolution,
)
from .thermo import (
    CopMetrics,
    Regime,
    Role,
    SubmachineFigures,
    ThermoReport,
    classify_regime,
    cop_metrics,
    entropy_production,
    invariant_violations,
    otto_conditions_and_trapezoid,
    submachine_report,
    thermo_report,
)
from .correlations import (
    CorrelationReport,
    correlation_report,
    mi_lower_bound,
    mutual_information,
    ppt_check,
    von_neumann_entropy,
    x_state_analysis,
)
from .sweeps import (
    GridScanConfig,
    SplitMix64,
    SweepConfig,
    SweepRecord,
    boost_scan,
    draw_params,
    evaluate_point,
    random_sweep,
    valve_sweep,
    write_records,
)

__version__ = "0.1.0"
