"""Exact K-theory of finite-dimensional C*-algebras via diagrams of
commutative subalgebra spectra, with partial-ideal lattice checks.

The computation pipeline is exact throughout: Gaussian-rational matrix
arithmetic, integer presentations of abelian groups normalized by Smith
normal form, and finite enumeration for lattices.
"""

from .errors import (SubdiagramInsufficientError, ValidationError,
                     VerificationError)
from .exact import ExactMatrix, GaussianRational, MatrixClass
from .algebra import (AlgebraElement, InnerAutomorphism, MultiMatrixAlgebra,
                      StarHom, cycle_unitary, diagonal_projection,
                      pythagorean_unitary, sample_unital_hom, stabilize,
                      transposition_unitary, unitalize)
from .subalgebra import (CommSubalgebra, FiniteSpace, SpaceMap,
                         SpectrumFunctor, SubalgebraArrow,
                         partition_subalgebra, span_subalgebra, spectrum,
                         spectrum_of_inclusion)
from .diagram import (DiagramMorphism, Functor, Shape, ShapedDiagram,
                      compose_morphisms, postcompose)
from .snf import (IntegerRowLattice, SNFResult, integer_determinant,
                  smith_normal_form)
from .abgroup import (AbHom, ColimitResult, PresentedAbGroup,
                      cocone_factorization, colimit, colimit_induced,
                      element_eq, kernel)
from .lattices import (ClosedSetFunctor, LatticeHom, MeetSemilattice,
                       closed_set_lattice, closed_set_map, limit_semilattice)
from .ktheory import (EtaResult, K0Group, KFunctor, K_of_map, K_of_space,
                      SubdiagramSpec, build_subdiagram, eta, k0_standard,
                      k0_standard_hom, k_tilde_f, k_tilde_f_nonunital,
                      verify_naturality_square, verify_theorem1)
from .ideals import (Conjecture1Report, PartialIdeal, ReconstructionResult,
                     TotalIdeal, enumerate_partial_ideals, is_rotation_fixed,
                     partial_from_total, reconstruct_total, restrict_total,
                     t_tilde, total_ideal_lattice, verify_conjecture1)

__version__ = "0.1.0"
