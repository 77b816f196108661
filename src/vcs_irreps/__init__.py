"""Explicit unitary irreps of su(1,1), u(3) and su(3) with exact arithmetic.

The package builds generator matrices three ways - closed forms for
lowest-weight su(1,1) irreps, the U(2)-coupled canonical basis for u(3), and
the SO(3)-coupled rotor basis for su(3) - plus a generic orthonormalization
engine (``kmatrix``) that recovers the same matrices from non-unitary
realizations.  ``repcheck`` verifies any of them against the structure
constants, and the ``vcs-irreps`` CLI exposes generation, verification and
cross-basis comparisons.
"""

from .angmom import SpinError, clebsch_gordan, clebsch_gordan_twice, racah_u, wigner_6j
from .opmatrix import OperatorMatrix
from .radical import Radical, RadicalSum
from .su11 import Su11Irrep
from .su3_so3 import RotorLabel, Su3Label
from .u3 import CanonicalLabel, U3HighestWeight

__all__ = [
    "CanonicalLabel",
    "OperatorMatrix",
    "Radical",
    "RadicalSum",
    "RotorLabel",
    "SpinError",
    "Su11Irrep",
    "Su3Label",
    "U3HighestWeight",
    "clebsch_gordan",
    "clebsch_gordan_twice",
    "racah_u",
    "wigner_6j",
]

__version__ = "0.1.0"
