"""Exact verification toolkit for path hypergraphs of finite graphs.

Builds the t-path hypergraph of a graph and decides, with exact rational
arithmetic throughout, the chain of covering properties: Konig, packing,
idealness of the covering polyhedron, total unimodularity of the
incidence matrix, and the Mengerian property itself.
"""

from .clutters import (
    Clutter,
    has_konig,
    has_packing,
    incidence_matrix,
    minimal_covers,
    nu,
    tau,
)
from .graphs import (
    Graph,
    build_path_hypergraph,
    is_connected,
    make_family,
    parse_edge_list,
    parse_graph6,
    to_dot,
    to_graph6,
)
from .ideals import (
    MonomialIdeal,
    NtfResult,
    cover_degree,
    is_normally_torsion_free,
    member_of_power,
    powers_equal,
    symbolic_power,
)
from .linalg import (
    IdealityResult,
    PolyhedronVertex,
    TUResult,
    TUWitness,
    is_ideal,
    is_totally_unimodular,
    verify_vertex,
)
from .classify import (
    Caps,
    CapExceeded,
    ClassVerdict,
    DecisionReport,
    classify_mengerian,
    decide_mengerian_exact,
    is_path_with_double_stars,
    is_star_plus_edge,
)
from .survey import SurveyReport, cross_check, enumerate_connected

__version__ = "0.1.0"
