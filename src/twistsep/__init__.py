"""Exact tools for twisted conjugacy in finitely generated torsion-free
nilpotent groups: Mal'cev arithmetic, twisted centralizer chains, finite
congruence quotients, finite extensions, and growth measurements."""

from .errors import (BudgetExceededError, PreconditionError, TwistsepError,
                     ValidationError)
from .malcev import (GroupHom, MalcevPresentation, ball, commutator,
                     identity_automorphism, inner_automorphism, inverse,
                     multiply, power, root, verify_hom, verify_presentation,
                     word_length)
from .groups import dim5, dim5_automorphism, free_abelian, heisenberg, \
    heisenberg_automorphism, ut4
from .subgroups import InducedSequence, power_subgroup
from .twisted import (TwistedChain, TwistedWitness, blackburn_constants,
                      canonical_form, center, is_twisted_conjugate, psi,
                      solve_power_twisted, twist_level, twisted_chain)
from .quotients import (FiniteQuotient, congruence_depth, congruence_quotient,
                        depth_scan, full_power_subgroup, induced_automorphism,
                        one_dim_central_quotient, separates,
                        verify_pullback_reduction)
from .extensions import (FiniteExtension, decompose_twisted_class,
                         farb_depth_union, is_conjugate_virtual)

__version__ = "0.1.0"
