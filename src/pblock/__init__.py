"""Partition, abacus and block combinatorics for symmetric groups in odd characteristic."""

from .abacus import (
    AbacusDisplay,
    PQuotient,
    Pyramid,
    default_bead_count,
    is_jm_fayers,
    p_core,
    p_quotient,
    p_weight,
    reordered_quotient,
    rim_hook_removals,
)
from .blocks import (
    BeadNotation,
    BlockLabel,
    classify_3p,
    defect1_block,
    defect2_block,
    encode_notation,
    decode_notation,
    enumerate_block,
    from_3p,
    in_lambda_set,
    irreducible_set_X,
    loewy_length,
    loewy_length_detail,
    parse_notation,
    partners,
    principal_block,
    restriction_block,
    sigma_partner,
    tau,
    tau_p,
    theta,
    to_3p,
)
from .hooks import hook_lengths, is_jm_direct, p_power_diagram
from .mullineux import (
    MullineuxSymbol,
    check_good_node_compatibility,
    mullineux,
    mullineux_symbol,
    parity,
    partition_from_symbol,
)
from .partitions import (
    Partition,
    addable_nodes,
    add_node,
    conjugate,
    dominates,
    format_partition,
    good_nodes,
    is_hook,
    is_p_regular,
    is_p_restricted,
    normal_nodes,
    parse_partition,
    partition,
    partitions_of,
    removable_nodes,
    remove_node,
    residue,
)
from .verify import CHECKS, VerificationReport, run_checks

__version__ = "0.1.0"
