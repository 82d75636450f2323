"""
fuzzball: the fuzzy two-sphere realized on bifundamental matrix doublets.

Construct ground-state doublets, verify their algebraic identities, map them
to and from spin representations, expand matrices in fuzzy spherical
harmonics, check the graded closure, and compare everything against the
classical sphere (Hopf maps, Killing spinors, harmonic spectra).

Each public name is imported from its submodule on first use (PEP 562), so
``import fuzzball`` loads neither numpy nor any submodule.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_PUBLIC = {
    "equivalence": "canonicalize compatibility_residual grvv_to_su2 round_trip su2_to_grvv",
    "geometry": "SphereGrid gamma_so5 gamma_so9 hopf_s2 hopf_s4 hopf_s8 "
        "identification_check killing_spinor killing_vectors s8_inversion s_matrix section",
    "grvv": "GrvvSolution block_solution gauge_dress ground_state grvv_residual "
        "real_coordinates sphere_constraints",
    "harmonics": "BifundamentalModes HarmonicBasis build_basis classical_ylm "
        "decompose_adjoint decompose_bifundamental decompose_ubar reconstruct_adjoint "
        "reconstruct_bifundamental reconstruct_ubar",
    "matcore": "dagger",
    "spectra": "commutator_decay dirac_square_check fuzzy_laplacian_spectrum "
        "mode_convergence scalar_kinetic_spectrum spherical_spinor spinorial_harmonic "
        "symbol_map vector_harmonics",
    "su2rep": "BilinearSet Su2Representation bilinears direct_sum "
        "doublet_covariance_residual intertwiner_residual irrep u2_structure_residual",
    "superalg": "calibrate",
}
# public name -> its submodule, imported on first use
_SOURCES = {name: module for module, names in _PUBLIC.items() for name in names.split()}

__all__ = list(_SOURCES)


def __getattr__(name):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value
