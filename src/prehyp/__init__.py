"""Numerical verification toolkit for first-order hyperbolic operator
pairs on 1+1 globally hyperbolic spacetimes: symbol-level hyperbolicity
predicates, Cauchy solves through the second-order reduction, advanced
and retarded Green's operators, and the Dirac-current inner product on
Cauchy lines.
"""

from .geometry import (
    CauchyLine,
    CausalShadow,
    Chart1p1,
    ChartDomainError,
    DiagonalMetric,
    MetricPositivityError,
    causal_shadow,
    minkowski,
)
from .expr import ExprEvalError, ExprSyntaxError, evaluate, parse, pretty
from .grids import (
    CauchyData,
    CFLError,
    Grid1p1,
    GridSection,
    MarginError,
    build_grid,
    make_cauchy_data,
    plateau_window,
)
from .bundle_ops import (
    FirstOrderOperator,
    MatrixField,
    RankMismatchError,
    SecondOrderOperator,
    apply_operator,
    compose,
    formal_adjoint,
    is_complementary_pair,
    is_normally_hyperbolic,
    pairing,
    principal_symbol_1,
    principal_symbol_2,
    symbol_invertibility,
)
from .cauchy import (
    PairCheckError,
    PrenormalHyperbolicityError,
    RoundTripReport,
    SolveReport,
    compatibility_round_trip,
    normal_derivative_data,
    restrict,
    solve_cauchy,
    solve_cauchy_plain,
    solve_first_order_direct,
)
from .greens import (
    AdjointReport,
    GreensReport,
    TestSection,
    adjoint_pairing_check,
    greens_apply,
    greens_report,
    identity_i_residual,
    identity_ii_residual,
    make_test_section,
    uniqueness_probe,
)
from .qft_dirac import (
    DiracModel,
    beta_sigma,
    build_dirac_pair,
    data_space_isometry_check,
    dirac_adjoint,
    dirac_current,
    hypersurface_independence,
)
from .config import ConfigError, ScenarioConfig, load_config

__version__ = "0.1.0"
