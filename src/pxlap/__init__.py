"""Desk-scale numerics for quasilinear elliptic systems driven by the
p(x)-Laplacian: variable-exponent norms, first eigenpairs, sub/supersolution
construction with monotone iteration, and homotopy/multi-start machinery for
locating additional solutions."""

__version__ = "0.1.0"

from .eigen import EigenPair, enlarged_eigenpair, first_eigenpair
from .errors import (
    ConfigError,
    ConstructionError,
    DomainError,
    HypothesisError,
    MeshMismatchError,
    NumericalError,
    PxlapError,
)
from .existence import (
    Nonlinearity,
    OrderedBox,
    benchmark_family,
    build_ordered_box,
    check_hypotheses,
    construct_subsolution,
    construct_supersolution,
    negative_solutions,
    solve_in_box,
    verify_ordered_box,
)
from .exponents import ExponentField, check_Hp, check_Hp_rays
from .mesh import (
    GridFunction,
    Mesh,
    build_interval_mesh,
    build_rectangle_mesh,
    dilate_domain,
    integrate,
    restrict,
)
from .modular import (
    ModularReport,
    check_norm_modular,
    luxemburg_norm,
    modular,
    pair_norm,
    sobolev_norm,
)
from .multiplicity import (
    HomotopyConfig,
    HomotopyTrace,
    annulus_search,
    boundedness_probe,
    continuation,
    nonexistence_probe,
)
from .operator import (
    OperatorContext,
    SolveReport,
    assemble_residual,
    comparison_check,
    dirichlet_solve,
    mean_value_constant,
    picone,
)
