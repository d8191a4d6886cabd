"""Good decompositions of digraphs: pairs of arc-disjoint strong spanning
subdigraphs in compositions and Cartesian/strong/lexicographic products."""

from .builders import (
    Built,
    CompositionSpec,
    CoordinateMap,
    cartesian_power,
    cartesian_product,
    compose,
    lexicographic_product,
    strong_product,
)
from .decomp import (
    CharacterizationResult,
    ConstructionError,
    CycleCoverInfeasible,
    Decomposition,
    Refusal,
    VerifyResult,
    characterize_semicomplete_composition,
    decompose_cartesian_power,
    decompose_cartesian_square,
    decompose_cartesian_with_good_factor,
    decompose_cn_boxtimes_cm,
    decompose_cn_square,
    decompose_comp_hamiltonian,
    decompose_composition,
    decompose_lexicographic,
    decompose_strong_product,
    exception_digraph,
    extend_by_twins,
    match_exception,
    trotter_erdos_hamiltonian,
    verify,
    verify_decomposition,
)
from .digraph import (
    Digraph,
    arc_connectivity,
    complete,
    cycle,
    empty,
    find_isomorphism,
    is_k_arc_strong,
    is_semicomplete,
    is_strong,
    path,
    relabel,
    s4,
)
from .flows import (
    CycleCover,
    cover_cut,
    cycle_cover,
)
from .io import (
    ParseError,
    export_dot,
    parse_decomposition,
    parse_edge_list,
    render_decomposition,
    render_edge_list,
)
from .oracle import (
    BACKEND,
    OracleReport,
    enumerate_semicomplete,
    oracle_good_decomposition,
)
from .structure import (
    Ear,
    EarDecomposition,
    ear_decomposition,
    hamiltonian_cycle_bruteforce,
    hamiltonian_cycle_semicomplete,
    validate_ear_decomposition,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
