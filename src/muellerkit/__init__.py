"""Mueller-matrix reconstruction from polarization measurement pairs.

Mueller matrices in scope are proper orthochronous Lorentz matrices acting
on Stokes 4-vectors, represented by a complex 4-parameter k with
k0^2 - k.k = 1 (see ``muellerkit.lorentz``). Solvers reconstruct devices
from one, two, four, or six measurement pairs (``rotation`` for
rotation-only devices, ``relativistic`` for the general case), with
quadratic-form diagnostics (``quadform``), stabilizer sampling
(``littlegroup``), independent oracles (``oracle``), canonical JSON I/O
(``serialize``), and a CLI (``muellerkit.cli``, installed as `muellerkit`).
"""

from .errors import (AntipodalInput, ConstraintViolation, DegenerateGeometry,
                     DivisionByZero, HalfTurn, InconsistentPairs,
                     InvariantMismatch, LengthMismatch, MuellerKitError,
                     NoConvergedRoot, NonRealProduct, NoRealRoot,
                     NoValidCandidate, OutOfDomain, Rank1Violation,
                     RankDeficient, SingularSystem)
from .littlegroup import LittleGroupElement, little_element, sample_little
from .lorentz import (ComplexParameter, GibbsVector, LorentzReport,
                      MuellerMatrix, RealParameter, apply, boost_k, gibbs_of,
                      is_lorentz, k_from_nm, mueller_from_k, nm_from_k,
                      rotation_k)
from .oracle import (consistent_dataset, direct_linear_solve, random_lorentz,
                     random_pairs, random_stokes, rotation_dataset)
from .quadform import DiagResult, SignatureReport, classify_signature, diagonalize2
from .relativistic import (ExpansionCoeffs, QuadCoeffs, constraint_residual,
                           expansion_to_params, family_4d, k_from_expansion,
                           params_to_expansion, quad_coeffs, solve_four,
                           solve_six)
from .rotation import Family3DSolution, family_3d, gibbs_3d, solve_two_3d
from .stokes import (MeasurementPair, PairGeometry, StokesVector, invariant,
                     pair_geometry)

__version__ = "1.0.0"
