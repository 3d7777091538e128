"""Bosonic lattices damped through a single squeezed drain site.

The package builds tight-binding lattices, solves their exact Gaussian
steady states under localized squeezed dissipation, certifies the chiral
symmetry structure responsible for pure steady states, and quantifies the
resulting two-site entanglement.
"""

from .lattice import (
    Lattice,
    LatticeDiagnostics,
    Site,
    add_disorder,
    build_bipartite_random,
    build_chain,
    build_hofstadter,
    load_lattice,
    save_lattice,
    validate,
)
from .spectral import (
    ChiralPairing,
    DrainCoupling,
    DynamicalSpectrum,
    EigenSystem,
    SolverError,
    chiral_pairing,
    diagonalize,
    drain_couplings,
    dynamical_matrix,
    dynamical_spectrum,
)
from .steady import (
    BetaModeReport,
    CovarianceState,
    DarkModeError,
    DrainedSystem,
    DrainSpec,
    PairingError,
    SqueezedNoise,
    Trajectory,
    analytic_chiral_state,
    beta_occupations,
    evolve,
    extract_sigma,
    log_purity,
    purity,
    quadrature_covariance,
    steady_state,
)
from .symmetry import (
    SymmetryMatrix,
    SymmetryReport,
    check_symmetry,
    phi_zero_eigenmodes,
    sigma_bipartite,
    sigma_hofstadter,
    sigma_inversion,
)
from .entanglement import (
    NullifierMatrix,
    TwoModeCovariance,
    log_negativity,
    mirrored_pair_average,
    nullifier_matrix,
    nullifier_variances,
    reduced_covariance,
)

__version__ = "0.1.0"
