"""Split-step backward Euler laboratory.

Simulates paths of the two-stage scheme

    x*(n) = x(n) - h f(x*(n)),        x(n+1) = x*(n) + sqrt(h) sigma(n) xi(n+1)

for dissipative drifts f and deterministic noise schedules sigma, and
classifies the schedule into the three long-run regimes (decay to zero,
bounded oscillation, unbounded excursions) via Gaussian tail series.
"""

from ssbelab.gaussian import GaussianStream, derive_substream
from ssbelab.normal import phi_cdf, tail_q, log_tail_q
from ssbelab.drifts import DriftSpec, builtin_drift, make_drift
from ssbelab.schedules import (
    ContinuousSigma,
    NoiseSchedule,
    from_sigma_cell_rms,
    from_sigma_sampled,
    log_tail_limit,
    schedule_family,
    sigma_family,
)
from ssbelab.implicit import ImplicitSolution, SolverError, solve_scalar, solve_vector
from ssbelab.integrator import PathError, PathRecord, integrate
from ssbelab.classifier import (
    RegimeReport,
    classify,
    partial_sum_S,
    partial_sum_Sc,
    partial_sum_Sprime,
)
from ssbelab.affine import (
    AffineSystem,
    build_affine_system,
    build_C,
    eigen_map_check,
    lyapunov_value,
    solve_discrete_lyapunov,
)
from ssbelab.diagnostics import DiagnosticState, PathSummary
from ssbelab.harness import EnsembleReport, run_ensemble, run_consistency_suite

__version__ = "0.1.0"
