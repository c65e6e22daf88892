"""adiclab: exact-arithmetic workbench for adic completion questions.

Decides separatedness, completeness, and cohomological completeness of
finitely presented modules and bounded complexes over computable rings,
computes localization Ext at finite telescope stage, and cross-checks the
equivalences between those notions on generated instance corpora.
"""

__version__ = "0.1.0"

from .errors import (AdicLabError, BudgetExceeded, DivisionByZero,
                     InvalidComplex, InvalidRing, NonSurjectiveReduction,
                     NotFree, ParentMismatch, ParseError, TaskError,
                     UnknownProfile, UnsupportedRing)
from .rings import (RingElem, RingMap, RingSpec, apply_ring_map, elem_divstep,
                    element_to_str, make_ring, parse_element, ring_integers,
                    ring_polynomial, ring_power_series, ring_prime_field,
                    ring_quotient, ring_rationals)
from .modules import (FPModule, ModuleHom, StdBasis, free_module,
                      image_coker, kernel_hom, modules_isomorphic,
                      quotient_module, std_basis, zero_module)
from .complexes import (BoundedComplex, ComplexMap, cohomology,
                        complex_from_module, hom_complex, shift_complex)
from .verdicts import Verdict
from .adic import (Budgets, Tower, chain_profile, completion_tower,
                   is_complete, is_separated, lim_tower, memo_scope,
                   multiplication_tower)
from .derived import (ExtApprox, ext_localization,
                      is_cohomologically_complete, telescope_stage)
from .theorems import (DecayModule, EquivalenceReport, build_example1,
                       check_lemma1, check_lemma5, check_theorem2,
                       check_theorem3, check_theorem4)
