"""Covering-spread metrics and disjointness-complex tooling for abstract
Seifert surface systems."""

from .patterns import (EMPTY_PATTERN, OffsetPattern, PatternError,
                       covering_spread, dualize, intersection_number, lt_lb,
                       validate_pattern)
from .complexes import (FlagComplex, build_complex, contractibility_report,
                        embedded_cycles, homology_h1, induced_cycles,
                        is_k_large, is_locally_k_large, mod2_cocycles,
                        simplex_listing, to_dot)
from .homology import H1Structure, smith_invariants
from .homotopy import (HomotopyResult, apply_move, canonical_cycle,
                       normalize_cycle, reduce_cycle_homotopy, replay,
                       validate_cycle)
from .systems import (BackendContractError, Complexity, SurfaceSystem,
                      SystemFormatError, UnsupportedBackend, double_curve_sum,
                      geodesic, graph_to_system, kakimizu_null_homotopy,
                      lattice_distance, lattice_model, line_model, load_system,
                      random_connected_graph, save_system)
from .verify import (ClaimReport, ReductionBounds, VerificationReport,
                     run_suite, verify_contractible_2d, verify_cs_le_i,
                     verify_distance_theorem, verify_link_girth,
                     verify_residues_sc, verify_simple_connectivity,
                     verify_st_bound)

__version__ = "0.1.0"
