"""Graph intermediate representation.

A :class:`Graph` is a DAG of named :class:`Node` objects in topological
order.  Node kinds:

* ``INPUT`` — runtime tensors (token ids, hidden states, attention mask).
* ``PARAM`` — weights, with an initializer so functional execution can
  materialize them deterministically.
* ``OP`` — an :class:`~repro.ops.base.Operator` application.
* ``FUSED`` — a rewritten region carrying an opaque payload (an attention
  kernel binding or a compilation-template binding); see
  :mod:`repro.graph.rewrite`.

Graphs execute functionally via :meth:`Graph.run` (NumPy, FP16 storage) —
the ground truth every engine's output is checked against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.errors import GraphError
from repro.ops.base import Operator, Shape


class NodeKind(enum.Enum):
    INPUT = "input"
    PARAM = "param"
    OP = "op"
    FUSED = "fused"


@dataclass
class Node:
    """One graph vertex."""

    name: str
    kind: NodeKind
    shape: Shape
    op: Operator | None = None
    inputs: list[str] = field(default_factory=list)
    initializer: Callable[[], np.ndarray] | None = None
    payload: Any = None          # fused-node binding (kernel/template)
    tags: dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        op = f", op={self.op.name}" if self.op is not None else ""
        return f"Node({self.name!r}, {self.kind.value}, shape={self.shape}{op})"


class Graph:
    """A topologically ordered operator DAG.

    Nodes enter a graph only through :meth:`add_node`, and a node's
    ``inputs`` never change after it is added (rewrites build a new
    graph).  ``add_node`` therefore records each node as a reader of its
    inputs once, and :meth:`consumers` reads that index instead of
    scanning the graph.
    """

    def __init__(self, name: str = "graph"):
        self.name = name
        self.nodes: dict[str, Node] = {}
        self.order: list[str] = []
        self.outputs: list[str] = []
        #: Readers of each node that has any, in graph order, each once.
        self._readers: dict[str, list[Node]] = {}

    # ------------------------------------------------------------- building

    def add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise GraphError(f"duplicate node name {node.name!r}")
        for dep in node.inputs:
            if dep not in self.nodes:
                raise GraphError(
                    f"node {node.name!r} depends on unknown node {dep!r}"
                )
        for dep in node.inputs:
            readers = self._readers.get(dep)
            if readers is None:
                self._readers[dep] = [node]
            elif readers[-1] is not node:  # ``Add(h, h)`` is one reader
                readers.append(node)
        self.nodes[node.name] = node
        self.order.append(node.name)
        return node

    def mark_output(self, name: str) -> None:
        if name not in self.nodes:
            raise GraphError(f"cannot mark unknown node {name!r} as output")
        if name not in self.outputs:
            self.outputs.append(name)

    # -------------------------------------------------------------- queries

    def node(self, name: str) -> Node:
        if name not in self.nodes:
            raise GraphError(f"no node named {name!r}")
        return self.nodes[name]

    def op_nodes(self) -> list[Node]:
        """All OP/FUSED nodes in topological order."""
        return [
            self.nodes[n]
            for n in self.order
            if self.nodes[n].kind in (NodeKind.OP, NodeKind.FUSED)
        ]

    def consumers(self, name: str) -> list[Node]:
        """Nodes that read ``name``, in graph order, each once."""
        return list(self._readers.get(name, ()))

    def consumer_counts(self) -> dict[str, int]:
        """Read count per node (outputs count as one external consumer)."""
        counts: dict[str, int] = {n: 0 for n in self.nodes}
        for n in self.order:
            for dep in self.nodes[n].inputs:
                counts[dep] += 1
        for out in self.outputs:
            counts[out] += 1
        return counts

    def validate(self) -> None:
        """Check topological consistency and per-node shape inference."""
        seen: set[str] = set()
        for name in self.order:
            node = self.nodes[name]
            for dep in node.inputs:
                if dep not in seen:
                    raise GraphError(
                        f"node {name!r} reads {dep!r} before it is defined"
                    )
            if node.kind is NodeKind.OP:
                assert node.op is not None
                in_shapes = [self.nodes[d].shape for d in node.inputs]
                inferred = node.op.infer_shape(*in_shapes)
                if tuple(inferred) != tuple(node.shape):
                    raise GraphError(
                        f"node {name!r}: recorded shape {node.shape} != "
                        f"inferred {inferred}"
                    )
            seen.add(name)
        for out in self.outputs:
            if out not in self.nodes:
                raise GraphError(f"unknown output {out!r}")

    # ------------------------------------------------------------ execution

    def run(
        self,
        inputs: dict[str, np.ndarray],
        fused_executor: Callable[[Node, list[np.ndarray]], np.ndarray] | None = None,
    ) -> dict[str, np.ndarray]:
        """Functionally execute the graph.

        ``inputs`` maps INPUT node names to arrays; PARAM nodes materialize
        from their initializers.  FUSED nodes need ``fused_executor`` (the
        runtime supplies one that dispatches to the bound kernel/template).
        Returns ``{output_name: array}``.
        """
        env: dict[str, np.ndarray] = {}
        for name in self.order:
            node = self.nodes[name]
            if node.kind is NodeKind.INPUT:
                if name not in inputs:
                    raise GraphError(f"missing runtime input {name!r}")
                env[name] = np.asarray(inputs[name])
            elif node.kind is NodeKind.PARAM:
                if node.initializer is None:
                    raise GraphError(f"param {name!r} has no initializer")
                env[name] = node.initializer()
            elif node.kind is NodeKind.OP:
                args = [env[d] for d in node.inputs]
                env[name] = node.op.compute(*args)
            else:  # FUSED
                if fused_executor is None:
                    raise GraphError(
                        f"graph contains fused node {name!r} but no "
                        "fused_executor was provided"
                    )
                args = [env[d] for d in node.inputs]
                env[name] = fused_executor(node, args)
        return {out: env[out] for out in self.outputs}

    # ----------------------------------------------------------------- misc

    def clone(self) -> "Graph":
        """Shallow structural copy (nodes are copied, ops/payloads shared)."""
        g = Graph(self.name)
        for name in self.order:
            n = self.nodes[name]
            g.add_node(
                Node(
                    name=n.name,
                    kind=n.kind,
                    shape=tuple(n.shape),
                    op=n.op,
                    inputs=list(n.inputs),
                    initializer=n.initializer,
                    payload=n.payload,
                    tags=dict(n.tags),
                )
            )
        for out in self.outputs:
            g.mark_output(out)
        return g

    def __len__(self) -> int:
        return len(self.order)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ops = sum(1 for n in self.nodes.values() if n.kind is NodeKind.OP)
        fused = sum(1 for n in self.nodes.values() if n.kind is NodeKind.FUSED)
        return (
            f"Graph({self.name!r}, nodes={len(self.nodes)}, ops={ops}, "
            f"fused={fused}, outputs={self.outputs})"
        )
