"""Workbench for blockers of non-crossing spanning trees in complete
geometric graphs: exact predicates, star/comb classification,
brute-force blocking oracles, and the constructive tree builders, all
cross-verifiable at desk scale."""

from .geometry import (
    COORD_BOUND,
    DegeneracyError,
    Point,
    assert_general_position,
    convex_hull_ccw,
    find_general_position_violation,
    line_meets_open_segment,
    orient,
    segments_cross,
    side_of_line,
)
from .graph import (
    Config,
    Edge,
    EdgeSet,
    TreeAnalysis,
    analyze_tree,
    boundary_edges,
    edge,
    is_noncrossing,
)
from .enumeration import (
    BlockReport,
    Family,
    MinimumBlockers,
    SizeGuardError,
    blocks,
    enumerate_ssts,
    minimum_blockers,
    noncrossing_edge_cover,
)
from .classify import (
    ClassifyResult,
    CombCertificate,
    CombFailure,
    classify,
    comb_certificate,
    comb_masks,
    is_star,
    star_center,
)
from .constructions import (
    ConeWitness,
    PreconditionError,
    SeparatedPair,
    boundary_leaf_sst4,
    central_edge_obstruction,
    cone_sweep_sst3,
    cone_sweep_sst3_witness,
    max_angle_vertex,
    separated_pair_sst3,
    validate_boundary_leaf,
    validate_separated_pair,
)
from .instances import (
    Instance,
    InstanceError,
    convex_instance,
    emit_instance,
    parse_instance,
    random_instance,
)

__version__ = "0.1.0"
