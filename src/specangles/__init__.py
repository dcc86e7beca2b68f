"""Maximal angles between spectral subspaces under PSD perturbations:
exact eigensolving, subspace geometry, closed-form bounds with their
critical constants, the partition infimum oracle, and seeded verification
campaigns."""

from types import ModuleType as _Module

from .core import (
    ConvergenceError,
    IntervalSet,
    Projector,
    SpectralDecomposition,
    SymmetricMatrix,
    eigh,
    eigh_many,
    membership_tol,
    set_distance,
    shift_set,
    singular_values_many,
    spectral_projector,
)
from .geometry import (
    AngleReport,
    BlockSplit,
    angle_report,
    angle_reports,
    block_split,
    psd_block_bounds,
)
from .bounds import (
    BoundConstants,
    C_CRIT,
    C_CRIT_SEM,
    CONVEX_SEPARATED,
    EnclosureReport,
    INTERLEAVED,
    LOG_THRESHOLD,
    LogBound,
    NoBoundKnownError,
    OmegaComponent,
    PerturbationInstance,
    N_eval,
    angle_bounds,
    bound_corollary,
    bound_favorable,
    bound_generic,
    bound_log,
    bound_sin2theta,
    constants,
    continuity_modulus,
    convexity_condition,
    enclosure_check,
    kappa_solve,
    omega_component,
    truncate_digits,
)
from .partitions import (
    ChainPlan,
    PartitionPlan,
    chain_demo,
    make_plan,
    optimize,
    riemann_limit_check,
)
from .instances import (
    DOUBLY_INTERLEAVED,
    SpecPlan,
    block_example,
    convex_plan,
    interleaved_plan,
    random_instance,
    rank_one_instance,
    sharpness_pair,
)
from .campaign import (
    ROW_FIELDS,
    BoundRow,
    CampaignConfig,
    ConfigError,
    TrialReport,
    build_instance,
    rows_jsonl,
    rows_of,
    run_campaign,
    walk_path,
)
from .rng import PortableRng

# Every public name imported above, the submodules aside.
__all__ = sorted(k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _Module))
