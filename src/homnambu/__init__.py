"""homnambu: exact computations with n-ary multiplicative Hom-Nambu-Lie algebras.

The toolkit represents a finite-dimensional algebra by exact rational
structure constants plus a twist matrix and mechanizes, over Q:

* validation of skew-symmetry, the Hom-Nambu identity and
  multiplicativity of the twist;
* Yau twists of classical Nambu-Lie algebras along endomorphisms;
* derivation spaces at every twist power, inner derivations and their
  commutator calculus, and representation checks;
* the induced binary Hom-Leibniz algebra on the fundamental set;
* one cochain complex with coefficients in a representation, whose
  trivial and adjoint instances get exact kernel/image/quotient
  reports, central extensions and infinitesimal deformations;
* the lift into Hom-Leibniz cohomology and its commuting-square check.
"""

__version__ = "0.1.0"

from . import (
    adjoint_cohomology,
    backends,
    bridge,
    cochains,
    derivations,
    fixtures,
    formats,
    fundamental,
    linalg,
    scalar_cohomology,
)
from .algebra import (
    HomNambuAlgebra,
    ad_matrix,
    bracket_eval,
    check_hom_nambu_identity,
    check_multiplicativity,
    check_skew_symmetry,
    filippov_algebra,
    signed_permutation_automorphisms,
    yau_twist,
    zero_algebra,
)
from .linalg import (
    SubspaceBasis,
    kernel_basis,
    image_basis,
    mat,
    matmul,
    quotient_dim,
    rank,
    solve,
)

__all__ = [
    "HomNambuAlgebra",
    "SubspaceBasis",
    "adjoint_cohomology",
    "backends",
    "bridge",
    "cochains",
    "derivations",
    "fixtures",
    "formats",
    "fundamental",
    "linalg",
    "scalar_cohomology",
    "ad_matrix",
    "bracket_eval",
    "check_hom_nambu_identity",
    "check_multiplicativity",
    "check_skew_symmetry",
    "filippov_algebra",
    "image_basis",
    "kernel_basis",
    "mat",
    "matmul",
    "quotient_dim",
    "rank",
    "signed_permutation_automorphisms",
    "solve",
    "yau_twist",
    "zero_algebra",
]
