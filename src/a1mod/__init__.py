"""Exact computations with graded modules over the subalgebra of the mod-2
Steenrod algebra generated by Sq1 and Sq2: Margolis homology, structure
classification, minimal resolutions, and a localized spectral-sequence
toolkit, plus a small text format and command line for module presentations.
"""

from . import (a1core, charts, davismahowald, f2linalg, margolis, modfile,
               resolution, structure)
from .a1core import (A1Module, direct_sum, dualize, f2, free_module, module,
                     suspend, tensor, truncate, validate)
from .davismahowald import (d2, e1_page, e3_page, lift_check, localized_ext,
                            sq4_solver)
from .errors import A1ModError
from .margolis import a0_decompose, is_q0_local, margolis_homology
from .modfile import parse_module, serialize
from .resolution import ext_dims, minimal_resolution
from .structure import (classify, localize_q0, realize, seagull, seagull_inf,
                        stably_equivalent, strip_free)

__version__ = "0.1.0"
