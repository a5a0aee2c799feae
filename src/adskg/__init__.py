"""Mode-space numerics for Klein-Gordon theory on Minkowski and AdS hypercylinders.

Submodules:
  specfun                 special functions (Gamma, Bessel family, 2F1)
  harmonics               hyperspherical harmonics and Wigner rotations
  geometry                Killing fields and exact Lie-algebra checks
  structures              symplectic/complex-structure linear algebra
  ads_modes               AdS tube mode space, radial profiles, omega_rho
  ads_complex_structure   j-factor condition system and Gamma candidates
  flux                    energy-momentum, radial flux, direction classifiers
  cli                     command-line audits (entry point: adskg)
"""

from .specfun import (
    PoleError,
    ConvergenceError,
    SignedLogGamma,
    log_gamma_signed,
    gamma_value,
    double_factorial,
    a_coeff,
    hyp2f1,
    radial_basis,
    radial_basis_deriv,
)
from .harmonics import (
    MultiIndex,
    SphericalPoint,
    LadderCoeffs,
    eval_harmonic,
    ladder_coeffs,
    norm_const,
    sphere_inner,
    wigner_small_d,
)
from .geometry import Signature, killing_field, killing_residual, lie_bracket, structure_check
from .structures import FiniteSymplecticSpace, ComplexStructureMatrix, SampledField
from .ads_modes import AdSParams, ModeVector, omega_rho, radial_eval, radial_wronskian
from .ads_complex_structure import JFactors, check_conditions, candidate_jab, apply_J
from .flux import DirectionVerdict, mode_flux, em_tensor, extrema_relation

__version__ = "0.1.0"
