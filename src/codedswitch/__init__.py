"""Coded packet placement and read scheduling for shared-memory switches.

A library for studying how erasure-coding packets across N parallel memory
units changes read throughput: placement policies (uniform, cyclic, block
design), optimal read algorithms for the structured placements, exact
full-throughput conditions and probabilities, reproducible Monte-Carlo
ensembles, and the chunk-level MDS / binary-cyclic codecs that realise the
coding assumptions end to end.
"""

__version__ = "0.1.0"

from .analysis import (
    ProbabilityEstimate,
    UnionModelMatrix,
    p_cover_cyclic,
    p_cover_uniform,
    p_full_throughput_exact,
    p_pair_cyclic,
    p_pair_design,
    union_model_matrix,
)
from .codec import (
    ChunkSet,
    CodecConfig,
    cyclic_codebook,
    cyclic_decode_burst,
    cyclic_encode,
    end_to_end_read,
    mds_decode,
    mds_encode,
    store_packets,
)
from .conditions import (
    IntersectionStats,
    coverage_holds,
    hall_full_throughput,
    intersection_stats,
    pairwise_holds,
    t_max,
)
from .ensemble import (
    EnsembleReport,
    EnsembleRow,
    ExperimentSpec,
    reproduce_figure,
    run_ensemble,
    whp_from_counts,
    whp_l_star,
)
from .model import (
    BipartiteView,
    Instance,
    Solution,
    bipartite_view,
    empty_solution,
    muset,
    throughput,
    validate_instance,
    validate_solution,
)
from .placement import (
    BlockDesign,
    PlacementRng,
    build_lexicographic_packing,
    build_projective_plane,
    draw,
    draw_cyclic,
    draw_design,
    draw_uniform,
    instance_from_starts,
    uniform_rows,
    verify_packing,
    with_k,
)
from .solvers import (
    OrientedBalanceGraph,
    ReductionOutput,
    balanced_orientation,
    cyclic_anchor_order,
    reduce_lsp,
    solve_cyclic,
    solve_design,
    solve_greedy,
    solve_matching_k1,
    solve_matching_k2n2,
    solve_oracle,
)

from . import errors  # noqa: F401  (exception taxonomy)
