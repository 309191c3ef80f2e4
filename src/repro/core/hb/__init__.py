"""Happens-before machinery: the graph, the paper's rules, SHB, witnesses."""

from .backend import HB_BACKENDS, HBBackend, make_backend
from .graph import Edge, HBGraph
from .rules import ALL_RULES
from .shb import (
    SHB_RF_RULE,
    ReadsFromEdge,
    ShbAnalysis,
    ShbPrediction,
    build_shb,
    predict_races,
    reads_from_edges,
)
from .witness import (
    RaceWitness,
    WitnessStep,
    hb_path,
    nearest_common_ancestor,
    race_witness,
)

__all__ = [
    "ALL_RULES",
    "Edge",
    "HBBackend",
    "HBGraph",
    "HB_BACKENDS",
    "RaceWitness",
    "ReadsFromEdge",
    "SHB_RF_RULE",
    "ShbAnalysis",
    "ShbPrediction",
    "WitnessStep",
    "build_shb",
    "hb_path",
    "make_backend",
    "nearest_common_ancestor",
    "predict_races",
    "race_witness",
    "reads_from_edges",
]
