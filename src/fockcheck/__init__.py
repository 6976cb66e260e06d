"""Exact-arithmetic engine for the mode algebra of fermionic Fock spaces.

The package realises, on truncated bases but with lazily evaluated operators
acting on the full space, the Clifford action of a single neutral fermion,
its Heisenberg current, the Virasoro families with central charges 1/2, 1
and -2+12*lam-12*lam**2, the W_{1+infinity} generators, the charge-graded
decomposition with its character identities, and the intertwining
isomorphism onto the charged two-fermion Fock space.  Every relation is
checked with zero tolerance; all coefficients are rational.
"""

from .charged import (
    CHARGED,
    enumerate_charged_basis,
    from_charged,
    lA_family,
    to_charged,
)
from .fock import (
    NEUTRAL,
    FockState,
    annihilation,
    apply_mode,
    creation,
    enumerate_basis,
    format_state,
    parse_state,
    weight,
)
from .grading import deg_h, dg, lemma_vector, partition_count, sector_basis, vacuum_like
from .heisenberg import h_mode, highest_weight_check, spanning_all
from .modeops import FermionBilinear, bilinear_mode
from .qchar import CharacterSeries, char_product_form, char_sum_form, char_trace, jacobi_check
from .suites import SUITES, run_suite
from .verify import VerificationReport, bracket_check, field_identity_check
from .virasoro import (
    central_charge,
    doubling_construct,
    l1_tilde_mode,
    l_half_mode,
    l_half_tilde_mode,
    lambda_family,
    sugawara_l1_mode,
    weight2_mode,
)
from .winf import glinf_matrix, jk_mode_charged, jk_mode_neutral, scalar_defect_check

__version__ = "0.1.0"
