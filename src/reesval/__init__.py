"""Exact commutative-algebra toolkit for containment and multiplicity checks."""

from .errors import (
    BudgetExceededError,
    NotHomogeneousError,
    PreconditionError,
    ReesvalError,
    RingMismatchError,
)
from .groebner import buchberger, normal_form, s_polynomial
from .ideals import AffineAlgebra, Ideal, kernel_of_map
from .monomial import (
    MonomialValuation,
    NewtonPolyhedron,
    find_min_artin_rees,
    find_min_briancon_skoda,
    gaussian_extension,
    integral_closure_power,
    membership_oracle_caratheodory,
    monomial_multiplicity,
    newton_polyhedron,
    rees_valuations_monomial,
)
from .multiplicity import (
    HilbertSeries,
    hilbert_series_monomial,
    krull_dim,
    length_sampler,
    local_multiplicity_via_gr,
    multiplicity_from_table,
    multiplicity_graded,
    read_length_table,
)
from .poly import QQ, Block, GrevLex, Lex, PolyRing, Polynomial, PrimeField
from .rings import (
    ReesPresentation,
    associated_graded,
    extended_rees_presentation,
    homogenize_ideal,
    lift_to_rees,
)
from .symbolic import ord_at, symbolic_order_along, symbolic_power
from .verify import (
    CheckReport,
    check_fixed_power_lemma,
    check_improved_chevalley,
    check_izumi_valuation_bound,
    check_local_zariski_nagata,
    check_main_theorem_A,
    check_order_ideal_theorem_graded,
    check_order_ideal_theorem_presentation,
    check_uniform_izumi_multiplicity,
    compute_normalized_ord,
    verify_exceptional_certificate,
)

__version__ = "0.1.0"
