"""1D stent drug-release simulator: P1 finite elements in two coupled
subdomains, explicit time stepping with decoupling variants, a
finite-difference cross-check, and refinement-study tooling."""

from .params import (
    PAPER_DEFAULTS,
    ModelParams,
    energy_growth_rate,
    paper_params,
    validate_params,
)
from .errors import (
    AllocationError,
    CflError,
    ConfigError,
    InstabilityError,
    NumericsError,
    ParameterError,
    SingularMatrixError,
    ValidationError,
)
from .fem import (
    FemOperators,
    Mesh1D,
    TridiagonalMatrix,
    assemble_a,
    assemble_b,
    assemble_mass,
    assemble_stiffness,
    build_mesh,
    build_operators,
    mesh_widths,
)
from .stepping import (
    SchemeConfig,
    SimState,
    SolutionRecord,
    initial_state,
    run_simulation,
    sharp_dt_limit,
    stable_step_count,
)
from .fdcheck import run_fd
from .analysis import (
    ErrorReport,
    FieldError,
    RateTable,
    compare_algorithms,
    compare_records,
    convergence_study,
    fit_rate,
    make_reference,
    prolong,
    stepping_study,
)
from .config import RunConfig, dump_config, parse_config

__version__ = "0.1.0"
