"""Zero-order nonlocal operators with logarithmic moduli.

The package evaluates singular integral operators whose kernels scale like
|x - y|^(-N) (the borderline below every fractional Laplacian), solves the
associated Dirichlet problems by collocation, and numerically verifies the
barrier constructions that drive their log-Hoelder regularity theory.

Layout: `logmod` (the truncated log modulus and exponent fits),
`kernels` (special functions, kernel catalog, mollification), `geometry`
(domains and grids), `nonlocal_eval` (pointwise quadrature of the operators),
`solver` (dense collocation solves, their Fredholm verdicts and the
first-eigenvalue sweep), `barriers` (barrier fields and verifiers), `cli`
(batch front end, installed as `logop`).

LOGOP_THREADS, when set, caps the BLAS thread pools: it is copied into the
OpenBLAS/OpenMP/MKL thread variables (unless those are set already) before
numpy is imported, because a pool is sized when its library loads.  numpy's
pool is not capped if numpy was imported before logop.  The factorizations
use scipy's bundled OpenBLAS, which loads at the first factorization (see
`solver`), so its pool is capped unless scipy.linalg was imported before
logop.
"""

import os as _os

if _os.environ.get("LOGOP_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["LOGOP_THREADS"])

from .geometry import Domain, Grid, GridFunction, build_grid
from .kernels import (
    KernelSpec,
    bessel_k1,
    digamma,
    gamma_fn,
    kernel_from_name,
    loglap_constants,
    mollify_kernel,
    schrodinger_weight,
)
from .logmod import RHO0, ell, fit_exponent
from .nonlocal_eval import (
    FieldFunction,
    QuadratureConfig,
    eval_J_conv,
    eval_LK,
    eval_loglap,
    eval_remainder,
    eval_schrodinger,
    sector_integral,
)
from .solver import (
    ProblemSpec,
    SolveReport,
    StiffnessMatrix,
    assemble,
    estimate_regularity,
    fredholm_sweep,
    solve_dirichlet,
    torsion_scan,
)
from .barriers import (
    verify_boundary_barrier,
    verify_bump,
    verify_composite,
    verify_exponential,
    verify_gain,
    verify_sector,
    verify_tail,
)

__version__ = "0.1.0"

__all__ = [
    "Domain",
    "Grid",
    "GridFunction",
    "build_grid",
    "KernelSpec",
    "bessel_k1",
    "digamma",
    "gamma_fn",
    "kernel_from_name",
    "loglap_constants",
    "mollify_kernel",
    "schrodinger_weight",
    "RHO0",
    "ell",
    "fit_exponent",
    "FieldFunction",
    "QuadratureConfig",
    "eval_J_conv",
    "eval_LK",
    "eval_loglap",
    "eval_remainder",
    "eval_schrodinger",
    "sector_integral",
    "ProblemSpec",
    "SolveReport",
    "StiffnessMatrix",
    "assemble",
    "estimate_regularity",
    "fredholm_sweep",
    "solve_dirichlet",
    "torsion_scan",
    "verify_boundary_barrier",
    "verify_bump",
    "verify_composite",
    "verify_exponential",
    "verify_gain",
    "verify_sector",
    "verify_tail",
]
