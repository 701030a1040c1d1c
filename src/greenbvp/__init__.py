"""Green's functions for even-order two-point and periodic boundary value
problems: kernel construction, decomposition identity checks, eigenvalue
location, constant-sign interval searches and comparison principles."""

from .expressions import ExprAst, ParseError, parse_expression
from .greens import (
    BCKind,
    GreensEvaluator,
    ProblemSpec,
    ResonantProblemError,
    build_greens,
    char_det_scan,
)
from .integrate import (
    FundamentalSystem,
    IntegrationError,
    integrate_fundamental,
    integrate_fundamental_batch,
)
from .operators import (
    LinearOperator,
    extend_to_double,
    extend_to_quadruple,
    reflect,
)
from .identities import (
    IdentityReport,
    check_connecting,
    check_decomposition,
    check_mixed_reflection,
    check_slope_constancy,
    check_symmetry,
    run_identities,
)
from .spectrum import (
    MultiplicityError,
    Spectrum,
    eigenfunction_at,
    find_eigenvalues,
    principal_eigenvalue,
    verify_first_eigenvalue_relations,
    verify_spectrum_unions,
)
from .signscan import (
    SignIntervalResult,
    SignReport,
    SignSearchError,
    classify_problem,
    classify_sign,
    reproduce_counterexamples,
    sign_interval,
    sweep_extrema,
    verify_sign_corollary,
)
from .comparison import (
    HypothesisError,
    SampledSolution,
    check_kernel_domination,
    check_solution_comparison,
    solve_bvp,
)

__version__ = "0.1.0"
