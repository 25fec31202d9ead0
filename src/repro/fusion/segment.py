"""Segments: contiguous runs of the downstream operator sequence.

The search engine reasons over a *linear* operator sequence (the paper's
``#1..#N`` numbering); a fusion scheme is a partition of that sequence into
segments.  :class:`SegmentSpec` resolves one segment's dataflow against the
full graph: which inputs come from the previous op in the chain, which are
external (weights, residual sources), and which interior outputs escape the
segment and must still be written to memory ("aux writes").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.core.errors import GraphError
from repro.graph.ir import Graph, NodeKind
from repro.ops.base import Operator, OpCategory, Shape


@dataclass
class SegmentSpec:
    """One fusable run of operators with resolved dataflow.

    ``sources[i][k]`` describes input ``k`` of op ``i``: ``("prev", -1)``
    means the previous op's output, ``("ext", j)`` means external value
    ``j`` (in ``ext_shapes`` / ``ext_names`` order).
    """

    node_names: list[str]
    ops: list[Operator]
    in_shapes: list[list[Shape]]
    out_shapes: list[Shape]
    sources: list[list[tuple[str, int]]]
    ext_shapes: list[Shape]
    ext_names: list[str]
    aux_write_indices: list[int]    # ops (by index, excluding last) that escape

    # ------------------------------------------------------------ properties

    @property
    def n_ops(self) -> int:
        return len(self.ops)

    @property
    def n_ci(self) -> int:
        return sum(1 for op in self.ops if op.category is OpCategory.CI)

    @property
    def out_shape(self) -> Shape:
        return self.out_shapes[-1]

    @property
    def names(self) -> str:
        return "+".join(op.name for op in self.ops)

    @cached_property
    def signature(self) -> tuple:
        """Shape-based identity: ``(op type, input shapes)`` per op.

        Identical layers share it, so the tuner and the plan layer key
        measurements and plans on it.
        """
        return tuple(
            (type(op).__name__, tuple(map(tuple, self.in_shapes[i])))
            for i, op in enumerate(self.ops)
        )

    @cached_property
    def signature_key(self) -> str:
        """``repr(signature)``: the segment id of tuner and plan keys."""
        return repr(self.signature)

    def external_bytes(self) -> int:
        """Total bytes of external inputs (FP16, bool masks as 1 B)."""
        from repro.core.fp16 import FP16_BYTES
        from repro.ops.base import numel

        return sum(numel(s) * FP16_BYTES for s in self.ext_shapes)

    # ---------------------------------------------------------- construction

    @classmethod
    def from_graph(cls, graph: Graph, node_names: Sequence[str]) -> "SegmentSpec":
        """Resolve a run of op-node names into a segment.

        Requires each op after the first to consume its predecessor (the
        chain property of a vertical fusion segment).
        """
        if not node_names:
            raise GraphError("empty segment")
        nodes = [graph.node(n) for n in node_names]
        for n in nodes:
            if n.kind is not NodeKind.OP or n.op is None:
                raise GraphError(f"segment node {n.name!r} is not a plain op")

        region = set(node_names)
        ops: list[Operator] = []
        in_shapes: list[list[Shape]] = []
        out_shapes: list[Shape] = []
        sources: list[list[tuple[str, int]]] = []
        ext_shapes: list[Shape] = []
        ext_names: list[str] = []
        ext_index: dict[str, int] = {}

        for i, node in enumerate(nodes):
            ops.append(node.op)
            out_shapes.append(tuple(node.shape))
            shapes_i: list[Shape] = []
            src_i: list[tuple[str, int]] = []
            prev_name = nodes[i - 1].name if i > 0 else None
            prev_used = False
            for dep in node.inputs:
                dep_node = graph.node(dep)
                shapes_i.append(tuple(dep_node.shape))
                if dep == prev_name and not prev_used:
                    src_i.append(("prev", -1))
                    prev_used = True
                else:
                    if dep in region:
                        raise GraphError(
                            f"segment {list(node_names)} is not a simple chain: "
                            f"{node.name!r} reads non-adjacent member {dep!r}"
                        )
                    if dep not in ext_index:
                        ext_index[dep] = len(ext_shapes)
                        ext_shapes.append(tuple(dep_node.shape))
                        ext_names.append(dep)
                    src_i.append(("ext", ext_index[dep]))
            if i > 0 and not prev_used:
                raise GraphError(
                    f"segment chain broken: {node.name!r} does not consume "
                    f"{prev_name!r}"
                )
            in_shapes.append(shapes_i)
            sources.append(src_i)

        aux: list[int] = []
        for i, node in enumerate(nodes[:-1]):
            external = [
                c for c in graph.consumers(node.name) if c.name not in region
            ]
            if external or node.name in graph.outputs:
                aux.append(i)

        return cls(
            node_names=list(node_names),
            ops=ops,
            in_shapes=in_shapes,
            out_shapes=out_shapes,
            sources=sources,
            ext_shapes=ext_shapes,
            ext_names=ext_names,
            aux_write_indices=aux,
        )

    # ------------------------------------------------------------- execution

    def compute(self, ext_values: Sequence[np.ndarray]) -> np.ndarray:
        """Functionally evaluate the segment given its external inputs.

        Identical numerics to running the ops detached — fusion never
        changes results, only data movement.
        """
        if len(ext_values) != len(self.ext_shapes):
            raise GraphError(
                f"segment expects {len(self.ext_shapes)} external values, "
                f"got {len(ext_values)}"
            )
        prev: np.ndarray | None = None
        for i, op in enumerate(self.ops):
            args = []
            for kind, j in self.sources[i]:
                if kind == "prev":
                    assert prev is not None
                    args.append(prev)
                else:
                    args.append(np.asarray(ext_values[j]))
            prev = op.compute(*args)
        assert prev is not None
        return prev

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SegmentSpec([{self.names}], ci={self.n_ci}, aux={self.aux_write_indices})"


def segment_sequence(
    graph: Graph, op_names: Sequence[str], lengths: Sequence[int]
) -> list[SegmentSpec]:
    """Split an operator sequence into segments by run lengths.

    ``lengths`` must sum to ``len(op_names)``.
    """
    if sum(lengths) != len(op_names):
        raise GraphError(
            f"segment lengths {list(lengths)} do not cover {len(op_names)} ops"
        )
    if any(l < 1 for l in lengths):
        raise GraphError(f"segment lengths must be positive, got {list(lengths)}")
    out: list[SegmentSpec] = []
    pos = 0
    for l in lengths:
        out.append(SegmentSpec.from_graph(graph, op_names[pos : pos + l]))
        pos += l
    return out
