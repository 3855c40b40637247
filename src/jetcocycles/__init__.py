"""Exact symbolic verification of density-valued 2-cocycles of vector fields.

The kernel (expr) carries differential polynomials in jet symbols with
rational coefficients; calculus adds the Lie action, the bracket and the covariant
derivative on densities, which are plain expressions of a given weight;
cochains holds the Chevalley-Eilenberg machinery and the generator
catalogue; charts certifies chart covariance and solves for connection
corrections; wittmodel realizes everything on Laurent polynomials with
residue pairing; report and cli expose the verification suites.
"""

from .expr import (
    DEFAULT_ORDER_CAP,
    DiffExpr,
    OrderCapExceeded,
    euler_derivative,
    jet,
    hinv,
    substitute,
    total_derivative,
)
from .lampoly import LamPoly
from .calculus import (
    action_via_nabla,
    bracket,
    covariant_derivative,
    lie_action,
    projective_from_affine,
    schwarzian,
)
from .cochains import (
    CATALOGUE_NAMES,
    Cochain1,
    Cochain2,
    catalogue,
    ce_differential,
    coboundary,
    det_cochain,
    lambda_solutions,
)
from .charts import (
    ChartFrame,
    covariant_equivalence,
    derive,
    is_global,
    pushforward,
    solve_corrections,
)
from .syntax import ExprSyntaxError, parse_expr, to_text
from .wittmodel import (
    LaurentDensity,
    WittField,
    evaluate_cochain,
    kn_value,
    laurent_action,
    nontriviality_certificate,
    residue_pair,
)
from .report import CheckRecord, emit_report, run_suite

__version__ = "0.1.0"
