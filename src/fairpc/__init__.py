"""Fair packing and covering solvers with width-independent iteration counts."""

from .matrix import (
    SparseNonnegMatrix,
    build_matrix,
    column_loads,
    constraint_loads,
    from_dense,
    read_matrix_market,
    write_matrix_market,
)
from .problem import (
    COVER,
    PACK,
    CoveringInstance,
    PackingInstance,
    ScalingRecord,
    SolverConfig,
    covering_optimum_bounds,
    f_alpha_value,
    g_beta_value,
    instance_from_dense,
    optimum_bounds,
    standardize,
    transform_inverse,
)
from .regularization import (
    CoveringRegParams,
    GradientPair,
    PackingRegParams,
    POSITIVE_OVERFLOW,
    derive_covering_params,
    derive_packing_params,
    f_r_value,
    grad_f_r,
    is_positive_overflow,
)
from .packing import (
    Certificate,
    PackingSolution,
    PackingState,
    TraceRow,
    certify,
    init_packing,
    solve_packing,
    step,
)
from .covering import (
    CoveringSolution,
    init_covering,
    solve_covering,
    step_covering,
)
from .oracle import (
    OracleSolution,
    covering_closed_form_optimum,
    diagonal_packing_optimum,
    single_constraint_packing_optimum,
    small_dense_packing_optimum,
)
from .rounds import LocalityAudit, ShardMessages, Shards, local_update, run_distributed

__version__ = "0.1.0"
