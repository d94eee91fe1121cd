"""Directed graphs with prescribed degree sequences and degree correlations.

The pipeline: measure targets from a graph (five models of increasing
detail), test the degree-correlation targets for realizability, construct
simple realizations that match exactly, and compare generated ensembles to
the original with a census metric suite.
"""
from .baselines import gen_d0k, gen_d1k, gen_uman
from .construct import ConstructionState, generate
from .errors import (ConstructionInvariantError, D2KError,
                     EdgeListFormatError, NotGraphicalError,
                     NotRealizableError, SwapError, TargetStructureError)
from .files import (load_metrics_report, load_targets, read_edge_list,
                    save_metrics_report, save_targets, write_edge_list)
from .graph import DirectedGraph, from_edge_list
from .metrics import (CensusReport, MetricsConfig, avg_neighbor_degree,
                      dsp, dyad_census, expansion, structural_suite,
                      triad_census)
from .realizability import RealizabilityReport, check
from .swaps import SwapGraph, enumerate_jdam_swaps
from .targets import (CellKey, D2KTargets, DdsTargets, MODE_DEGREE,
                      MODE_PAIR, SizeTargets, UmanTargets, extract_d2k,
                      extract_dds, extract_size, extract_uman)

__version__ = "0.1.0"

__all__ = [
    "CellKey", "CensusReport", "ConstructionInvariantError",
    "ConstructionState", "D2KError", "D2KTargets", "DdsTargets",
    "DirectedGraph", "EdgeListFormatError", "MODE_DEGREE", "MODE_PAIR",
    "MetricsConfig", "NotGraphicalError", "NotRealizableError",
    "RealizabilityReport", "SizeTargets", "SwapError", "SwapGraph",
    "TargetStructureError", "UmanTargets", "avg_neighbor_degree", "check",
    "dsp", "dyad_census", "enumerate_jdam_swaps", "expansion", "extract_d2k",
    "extract_dds", "extract_size", "extract_uman", "from_edge_list",
    "gen_d0k", "gen_d1k", "gen_uman", "generate", "load_metrics_report",
    "load_targets", "read_edge_list", "save_metrics_report", "save_targets",
    "structural_suite", "triad_census", "write_edge_list",
]
