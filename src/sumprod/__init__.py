"""Exact workbench for multiplicative-subgroup arithmetic in prime fields:
polynomial images, sumsets, coset fibers, and the inequalities that bound
them, all computed exactly: by full enumeration, or for homogeneous forms
over G x G by their coset keys (see sumprod.setops)."""

from .bounds import (
    ExtractionCertificate,
    FactorizationProbe,
    FiberBoundConstants,
    GrowthReport,
    ImageBoundConstants,
    ProbeConfig,
    Verdict,
    extract_permissible,
    fiber_bound_constants,
    h_min_formula,
    image_bound_constants,
    min_q_for_delta,
    probe_factorization,
    probe_growth,
    verify_fiber_bound,
    verify_image_lower_bound,
    verify_level_pair_bound,
    verify_shift_overlap_bound,
)
from .errors import WorkbenchError
from .field import ExtField, Prime, ext_field, make_prime
from .poly import (
    BiPoly,
    UniPoly,
    abs_irreducible_shift,
    factor_oracle,
    is_good,
    is_homogeneous,
    is_permissible,
    is_required,
    parse_bipoly,
    proper_power_form,
    squarefree_decomposition,
)
from .setops import (
    PairCount,
    ValueSet,
    count_level_pairs,
    count_zero_pairs,
    fiber_set,
    image,
    image_size,
    shift_intersection,
    sumset,
    value_set,
)
from .subgroup import (
    Coset,
    CosetPartition,
    Subgroup,
    coset_of,
    coset_partition,
    enumerate_subgroups,
    is_admitted,
    subgroup_of_order,
)
from .sweep import SweepConfig, emit_report, run_sweep

__version__ = "0.1.0"
