"""Point density on projective toric varieties under polynomial heights.

The pipeline: a toric problem, given by a relation matrix or as a
hypersurface x_1^a1 ... x_n^an = x_(n+1)^q, induces a multiplicative weight
on lattice points; the Newton polyhedron of its support determines the
growth exponent and log power; a mixed volume constant and a regularized
Euler product assemble the leading constant; and exact brute-force counts
plus height zeta partial sums validate it.
"""

from .counting import (AsymptoticReport, CountResult, ManinReport, ZetaSample,
                       asymptotic_report, count_points,
                       count_points_hypersurface, manin_constant,
                       sup_norm_prediction, zeta_partial)
from .euler import EulerReport, LocalFactor, epsilon_gap, euler_constant, local_factor
from .generators import (LatticePointSet, generators_with_check,
                         minimal_generators, stabilization_check)
from .model import (GeneralizedPolynomial, SignCount, ToricProblem,
                    UniformMultiplicativeSpec, ellipticity_witness, free_weight,
                    hypersurface_problem, hypersurface_weight, problem_weight,
                    restrict_to_hypersurface, sign_count, toric_weight,
                    validate_toric_matrix)
from .polyhedron import (DiagonalFace, Face, NewtonPolyhedron, build_polyhedron,
                         diagonal_face, face_points, iota_lp, lemma1_check,
                         polar_vectors, support_face)
from .polyparse import format_polynomial, parse_polynomial
from .quadrature import ConstantValue
from .volumes import (MixedTypeT, SargosData, mahler_constant,
                      mixed_volume_constant, newton_at_infinity,
                      polytope_volume, sargos_constant, volume_constant)

__version__ = "0.1.0"
