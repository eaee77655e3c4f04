"""Correlated Erdos-Renyi graph alignment, end to end.

Sampling and alignment statistics (`model`), permutation machinery
(`perms`), the exact generating-function engine (`genfunc`), finite-n
recovery bounds (`bounds`), the exhaustive MAP estimator (`estimator`),
and the Monte Carlo experiment harness (`experiment`).
"""

from .errors import CapExceededError, ConfigError, DomainError, ParameterError
from .model import (
    CorrelatedPair,
    Graph,
    PVec,
    SubsamplingParams,
    TypeMatrix,
    anonymize,
    delta_stat,
    expected_delta,
    intersection,
    pair_count,
    pair_index,
    pvec_to_r,
    sample_pair,
    subsampling_to_pvec,
    type_matrix,
)
from .perms import (
    CycleType,
    Permutation,
    count_support,
    cycle_type,
    enumerate_perms,
    lift,
    perm_gf_check,
    t1_bounds_check,
)
from .genfunc import (
    LaurentPoly,
    WMatrix,
    bin_pgf,
    block_gf,
    chernoff_tail,
    cycle_gf,
    cycle_gf_enum,
    double_type_sum,
    hyp_pgf,
    joint_enum,
    joint_pmf,
    nontrivial_gf,
    pair_perm_gf_enum,
    perm_gf,
    shift_type_sum,
)
from .bounds import (
    BoundReport,
    ClassifyConstants,
    RegionVerdict,
    average_over_edge_count,
    classify,
    conditional_tail_bound,
    delta_tail_bound,
    dense_condition,
    dense_tail_base,
    edges_conditioned_bound,
    union_over_perms,
)
from .estimator import (
    AlignmentResult,
    automorphism_count,
    hamming_scan,
    intersection_aut_check,
    isolated_count,
    map_estimate,
    q_set_size,
    refinement_aut_count,
)
from .experiment import (
    CGrid,
    ExplicitGrid,
    SubsamplingGrid,
    SweepConfig,
    TrialResult,
    emit_plot,
    run_sweep,
    run_trial,
    verify_gf,
)

__version__ = "0.1.0"
