"""Chip-firing on finite and metric graphs.

Divisors, the graph Laplacian, potential theory (generalized inverses,
j-function, energy pairings), Dhar burning and q-reduction, the bijection
between reduced divisors and spanning trees, the Jacobian group with
uniform tree sampling, the dollar game, and exact metric-graph reduction.

Importing chipfire does not load numpy.  The functions that need it import
it on first use: reduce's float floor and guess (PotentialTable.float_solve),
the sampler's Philox stream, move_bounds' eigenvalues and the dense
laplacian and reduced_laplacian.  The tree bijection, Dhar, the Jacobian,
the tree count and the metric functions are exact and never load it.
"""

from .graph import (
    Divisor,
    FiringScript,
    Graph,
    VertexFunction,
    apply_laplacian,
    canonical_plus,
    complete_graph,
    cycle_graph,
    fire_set,
    laplacian,
    outdeg,
    path_graph,
    reduced_laplacian,
)
from .jacobian import (
    JacobianPresentation,
    count_spanning_trees,
    group_add,
    jacobian,
    rank,
    rank_at_least,
    sample_spanning_tree,
    smith_normal_form,
    to_critical,
    winnable,
)
from .metric import (
    GraphPoint,
    MetricDivisor,
    MetricGraph,
    TropicalFunction,
    divisor_to_metric,
    metric_dhar,
    metric_laplacian,
    metric_make_effective,
    metric_potentials,
    metric_reduce,
    unit_metric,
)
from .potential import (
    GeneralizedInverse,
    PotentialTable,
    b_q,
    effective_resistance,
    energy_pairing,
    j_function,
    moore_penrose,
    pentagon_move,
    q_energy,
    reduced_inverse,
    total_energy,
    weighted_inverse,
)
from .reduction import (
    DharOutcome,
    MoveBounds,
    ReductionReport,
    dhar,
    is_linearly_equivalent,
    is_reduced,
    move_bounds,
    reduce,
    verify_minimizer,
)
from .treebij import (
    SpanningTree,
    divisor_to_tree,
    enumerate_spanning_trees,
    external_activity,
    is_spanning_tree,
    tree_to_divisor,
)

__version__ = "0.1.0"
