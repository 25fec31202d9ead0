"""Computational-graph IR, tracing, pattern matching, and rewriting.

The substitution for ``torch.fx`` (DESIGN.md §1): models are built through
:class:`~repro.graph.trace.GraphBuilder` into a :class:`~repro.graph.ir.Graph`
of operator nodes; :mod:`repro.graph.pattern` captures the MHA sub-graph and
operator chains; :mod:`repro.graph.rewrite` replaces matches with fused
nodes (paper Fig. 8's capture -> map -> rewrite pipeline).
"""

from repro.graph.ir import Graph, Node, NodeKind
from repro.graph.trace import GraphBuilder, Symbol
from repro.graph.pattern import (
    MHA_PATTERN,
    find_chain,
    find_mha_subgraphs,
    op_sequence,
)
from repro.graph.rewrite import replace_subgraph, replace_subgraphs, FusedNodePayload

__all__ = [
    "Graph",
    "Node",
    "NodeKind",
    "GraphBuilder",
    "Symbol",
    "MHA_PATTERN",
    "find_chain",
    "find_mha_subgraphs",
    "op_sequence",
    "replace_subgraph",
    "replace_subgraphs",
    "FusedNodePayload",
]
