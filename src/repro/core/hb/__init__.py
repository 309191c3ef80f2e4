"""Happens-before machinery: the graph, the paper's rules, SHB, witnesses."""

from .backend import HB_STORE, make_backend
from .graph import Edge, HBGraph
from .rules import ALL_RULES
from .shb import (
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
    race_witness,
)

__all__ = [
    "ALL_RULES",
    "Edge",
    "HBGraph",
    "HB_STORE",
    "RaceWitness",
    "ReadsFromEdge",
    "ShbAnalysis",
    "ShbPrediction",
    "WitnessStep",
    "build_shb",
    "hb_path",
    "make_backend",
    "predict_races",
    "race_witness",
    "reads_from_edges",
]
