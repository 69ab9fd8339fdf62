"""Dead places and concurrency relations of safe Petri nets.

The pipeline: structurally reduce a net while recording tagged linear
equations, build the token flow graph of those equations, compute (or
load) the concurrency relation of the small residual net, and propagate
it back up to the original net. A brute-force reachability oracle provides
the ground truth everything is verified against.
"""

from .errors import CoplacesError
from .formats import NetDocument, load_net, parse_net_text, parse_pnml, write_net_text
from .kernel import (PropagationStats, RootRelation, matrix_complete,
                     matrix_partial, propagate_node)
from .matrix import (UNDECIDED, ComparisonReport, ConcurrencyMatrix,
                     MatrixDocument, compare_matrices, filling_ratio,
                     read_matrix, write_matrix)
from .ptnet import (Marking, PetriNet, ReachabilitySet, explore_reachable,
                    fire_transition, oracle_matrix)
from .reductions import ReductionResult, reduce_net
from .tfg import (Configuration, ConstantNode, Equation, EquationSystem,
                  TokenFlowGraph, build_tfg, check_configuration,
                  find_marked_root, parse_equation_system, propagate_token,
                  split_token, successors, write_equation_system)

__version__ = "0.1.0"

__all__ = [
    "CoplacesError", "UNDECIDED",
    "PetriNet", "Marking", "ReachabilitySet",
    "fire_transition", "explore_reachable", "oracle_matrix",
    "NetDocument", "parse_pnml", "parse_net_text", "write_net_text", "load_net",
    "ReductionResult", "reduce_net",
    "Equation", "EquationSystem", "parse_equation_system",
    "write_equation_system", "TokenFlowGraph", "ConstantNode", "build_tfg",
    "successors", "Configuration", "check_configuration", "propagate_token",
    "split_token", "find_marked_root",
    "ConcurrencyMatrix", "MatrixDocument", "ComparisonReport",
    "read_matrix", "write_matrix", "filling_ratio", "compare_matrices",
    "RootRelation", "PropagationStats", "matrix_complete", "matrix_partial",
    "propagate_node",
]
