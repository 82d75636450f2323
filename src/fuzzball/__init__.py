"""
fuzzball: the fuzzy two-sphere realized on bifundamental matrix doublets.

Construct ground-state doublets, verify their algebraic identities, map them
to and from spin representations, expand matrices in fuzzy spherical
harmonics, check the graded closure, and compare everything against the
classical sphere (Hopf maps, Killing spinors, harmonic spectra).
"""

from .equivalence import (
    canonicalize,
    compatibility_residual,
    grvv_to_su2,
    round_trip,
    su2_to_grvv,
)
from .geometry import (
    SphereGrid,
    gamma_so5,
    gamma_so9,
    hopf_s2,
    hopf_s4,
    hopf_s8,
    identification_check,
    killing_spinor,
    killing_vectors,
    s8_inversion,
    s_matrix,
    section,
)
from .grvv import (
    GrvvSolution,
    block_solution,
    gauge_dress,
    ground_state,
    grvv_residual,
    real_coordinates,
    sphere_constraints,
)
from .harmonics import (
    BifundamentalModes,
    HarmonicBasis,
    build_basis,
    classical_ylm,
    decompose_adjoint,
    decompose_bifundamental,
    decompose_ubar,
    reconstruct_adjoint,
    reconstruct_bifundamental,
    reconstruct_ubar,
)
from .matcore import dagger
from .spectra import (
    commutator_decay,
    dirac_square_check,
    fuzzy_laplacian_spectrum,
    mode_convergence,
    scalar_kinetic_spectrum,
    spherical_spinor,
    spinorial_harmonic,
    symbol_map,
    vector_harmonics,
)
from .su2rep import (
    BilinearSet,
    Su2Representation,
    bilinears,
    direct_sum,
    doublet_covariance_residual,
    intertwiner_residual,
    irrep,
    u2_structure_residual,
)
from .superalg import SuperMatrixSet, calibrate, osp_closure_residual

__version__ = "0.1.0"
