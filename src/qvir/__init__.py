"""Exact verification engine for the q-deformed Virasoro algebra obtained by
Hamiltonian (Dirac) reduction of the quantum affine sl(2) current algebra.

Everything is computed in exact arithmetic over Q(i)(s)[t] with
s^2 = q and t^2 = 2; no floating point appears anywhere.
"""

from .qcoeff import (
    GaussianRational,
    HSeries,
    PoleAtQ1Error,
    Scalar,
    SurdRational,
    eval_q1,
    q_minus_qinv,
    qint,
    taylor_q1,
)
from .distcalc import (
    Dist2,
    ModeWindow,
    RatKernel,
    WindowMismatchError,
    expand_inner,
    expand_outer,
    pair,
    region_difference,
    weight_abs,
)
from .vertexcalc import (
    ExpField,
    ReconstructionError,
    contract,
    exchange_suite,
    fuse,
    standard_fields,
    verify_ee_ope,
    verify_exchange,
)
from .currents import (
    BracketTable,
    FieldFactor,
    KacMoodyLevel,
    TermSum,
    classical_bracket,
    classical_bracket_table,
    modes_from_ope,
    q_bracket_table,
    verify_serre_mode_equivalence,
)
from .dirac import (
    AffineMap,
    ConstraintSet,
    DiracMatrix,
    Reduction,
    SingularModeError,
    affine_check,
    build_dirac_matrix,
    invert,
    reduce,
    scenario,
)
from .qvirasoro import (
    ClassicalVirasoro,
    QVirasoroBracket,
    antisymmetry_check,
    classical_jacobi_check,
    classical_limit_check,
)
from .report import CheckRecord, Report
from .cli import RunConfig, emit, run

__all__ = [
    "AffineMap", "BracketTable", "CheckRecord", "ClassicalVirasoro",
    "ConstraintSet", "DiracMatrix", "Dist2", "ExpField", "FieldFactor",
    "GaussianRational", "HSeries", "KacMoodyLevel", "ModeWindow",
    "PoleAtQ1Error", "QVirasoroBracket", "RatKernel",
    "ReconstructionError", "Reduction", "Report", "RunConfig", "Scalar",
    "SingularModeError", "SurdRational", "TermSum", "WindowMismatchError",
    "affine_check", "antisymmetry_check", "build_dirac_matrix", "classical_bracket",
    "classical_bracket_table", "classical_jacobi_check", "classical_limit_check",
    "contract", "emit", "eval_q1",
    "exchange_suite", "expand_inner", "expand_outer", "fuse", "invert",
    "modes_from_ope", "pair", "q_bracket_table", "q_minus_qinv", "qint",
    "reduce", "region_difference", "run", "scenario", "standard_fields",
    "taylor_q1", "verify_ee_ope", "verify_exchange",
    "verify_serre_mode_equivalence", "weight_abs",
]

__version__ = "0.1.0"
