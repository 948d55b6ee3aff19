"""Weighted GF(2) cohomology, permutation almost-actions and their repairs,
coverings from exact actions, and partial-permutation cochain correction,
with exact rational arithmetic throughout and brute-force oracles at desk
scale."""

from .complexes import (
    Presentation,
    RootedTree,
    SimplicialComplex,
    face_weight,
    fundamental_group_presentation,
    link,
    random_lm_complex,
    spanning_tree,
)
from .cohomology import (
    F2Cochain,
    F2Subspace,
    coboundary,
    coboundary_space,
    cocycle_expansion_constant,
    cocycle_space,
    cosystole,
    distance_to_subspace,
    weighted_norm,
)
from .perms import (
    ErrPerm,
    commute_with_sign_flip,
    commutes_with_flip,
    fix_fixed_point_free,
    fix_to_involution,
    hamming,
    sign_flip,
)
from .actions import (
    AlmostAction,
    action_distance,
    defect,
    evaluate_word,
    induced_quotient_action,
    normalize_sofic_approx,
)
from .covers import (
    Covering,
    adjust_section,
    build_cover,
    contradiction_experiment,
    cover_tree,
    extension_from_cocycle,
    pull_back_cocycle,
    zeta_cochain,
)
from .symcochains import (
    Cycle,
    PartialInj,
    SamplerGraph,
    SymCochain,
    eta_minimality_check,
    evaluate_cycle,
    global_deletion,
    good_function_check,
    is_contractible,
    localize,
    relation_step,
    sampler_check,
    single_edge_correction,
    sym_delta_weight,
    sym_distance,
    vertex_link_correction,
)

__version__ = "0.1.0"
