"""Exact computations with bound quiver algebras: tensor products, higher
translates, and higher APR/BB tilting modules."""

from .errors import (AlgebraMismatchError, FieldMismatchError,
                     InconclusiveError, NonSplitError, NotAdmissibleError,
                     ParseError, QtiltError, ShapeMismatchError,
                     UndecidedIsomorphismError, UnsupportedCharacteristicError,
                     WorkspaceError)
from .exactla import Matrix, PrimeField, QQ, kron, rref, solve
from .quivercore import (Arrow, BoundQuiverAlgebra, Path, PathSum, Quiver,
                         StructureConstantAlgebra, abstract_radical,
                         build_algebra, opposite,
                         primitive_orthogonal_idempotents,
                         semisimple_and_basic_flags)
from .repcore import (ModuleMap, Representation, decompose, direct_sum, dual,
                      endomorphism_algebra, hom_space, inj, is_isomorphic,
                      cokernel_rep, proj, proj_sum, projective_cover,
                      random_module, regular, simple, zero_rep)
from .homengine import (InfinityMarker, MinimalResolution, ProbeResult,
                        ext_dim, gldim, injd, is_finite, min_proj_resolution,
                        pd, tau_finiteness_probe, tau_n, tau_n_minus)
from .tensorcon import (TensorAlgebraResult, kunneth_verify, structural_suite,
                        tensor_algebras, tensor_modules)
from .tilting import (AprReport, BbReport, CotiltReport, TiltingCertificate,
                      apr_check, apr_cotilting_check, bb_check, count_apr,
                      endo_algebra, present_algebra, verify_tilting)
from .cli import (Workspace, dispatch, main, parse_algebra_file,
                  parse_module_file, serialize_algebra, serialize_module)

__version__ = "0.1.0"
