"""Graph rewriting: replace a matched region with one fused node.

"The captured adjacent nodes are replaced with fused nodes to complete the
graph rewriting" (paper §4.3).  The fused node carries a
:class:`FusedNodePayload` that the runtime dispatches on — either an MHA
kernel binding or a compilation-template binding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.errors import GraphError
from repro.graph.ir import Graph, Node, NodeKind


@dataclass
class FusedNodePayload:
    """What a FUSED node executes.

    ``kind`` selects the dispatch path in the runtime:

    * ``"mha"`` — ``binding`` is an attention-kernel handle; ``meta`` holds
      the :class:`~repro.mha.problem.AttentionProblem` geometry.
    * ``"template"`` — ``binding`` is a compilation template instance over
      the original operator chain; ``meta`` holds the segment description.
    """

    kind: str
    binding: Any
    meta: dict[str, Any] = field(default_factory=dict)
    original_nodes: list[str] = field(default_factory=list)


#: One fusion region: (node names, payload, fused-node name or None).
Region = tuple[Sequence[str], FusedNodePayload, str | None]


def replace_subgraph(
    graph: Graph,
    node_names: list[str],
    payload: FusedNodePayload,
    fused_name: str | None = None,
) -> Graph:
    """Return a new graph with ``node_names`` collapsed into one FUSED node.

    Requirements (checked): the nodes form a contiguous region whose only
    value escaping to the rest of the graph is the *last* node's output.
    External inputs of the region become the fused node's inputs, in first-
    use order.  The fused node takes the last node's position and is named
    ``fused_name`` (default ``fused_<last>``).
    """
    return replace_subgraphs(graph, [(node_names, payload, fused_name)])


def replace_subgraphs(graph: Graph, regions: Sequence[Region]) -> Graph:
    """Collapse several disjoint regions of ``graph`` in one rebuild.

    Each region obeys :func:`replace_subgraph`'s rules and names nodes of
    ``graph``.  The result equals applying :func:`replace_subgraph` to each
    region in turn: a region reading another region's last node reads that
    region's fused node instead.  Overlapping regions and colliding fused
    names raise :class:`GraphError`; no regions returns ``graph`` itself.
    """
    if not regions:
        return graph
    owner: dict[str, int] = {}       # region node -> region index
    rename: dict[str, str] = {}      # region's last node -> its fused node
    fused_names: set[str] = set()
    for i, (node_names, _payload, fused_name) in enumerate(regions):
        if not node_names:
            raise GraphError("cannot fuse an empty node list")
        region = set(node_names)
        for n in node_names:
            if n not in graph.nodes:
                raise GraphError(f"unknown node {n!r} in fusion region")
            if n in owner:
                raise GraphError(
                    f"node {n!r} is in two fusion regions ({owner[n]} and {i})"
                )
            if graph.nodes[n].kind not in (NodeKind.OP, NodeKind.FUSED):
                raise GraphError(f"cannot fuse non-op node {n!r}")
        for n in node_names[:-1]:
            external = [c for c in graph.consumers(n) if c.name not in region]
            if external or n in graph.outputs:
                raise GraphError(
                    f"interior node {n!r} of fusion region escapes to "
                    f"{[c.name for c in external]}; only the last node may"
                )
        last = node_names[-1]
        fused_name = fused_name or f"fused_{last}"
        # Live names at this region's turn: the graph less the regions
        # already collapsed, plus their fused nodes.
        if fused_name in fused_names or (
            fused_name in graph.nodes
            and fused_name not in region
            and fused_name not in owner
        ):
            raise GraphError(f"fused node name {fused_name!r} collides")
        fused_names.add(fused_name)
        owner.update(dict.fromkeys(node_names, i))
        rename[last] = fused_name

    fused_nodes: dict[str, Node] = {}
    for node_names, payload, _fused_name in regions:
        region = set(node_names)
        # External inputs in first-use order, deduplicated.
        ext_inputs: dict[str, None] = {}
        for n in node_names:
            for dep in graph.nodes[n].inputs:
                if dep not in region:
                    ext_inputs[dep] = None
        last = node_names[-1]
        payload.original_nodes = list(node_names)
        fused_nodes[last] = Node(
            name=rename[last],
            kind=NodeKind.FUSED,
            shape=tuple(graph.nodes[last].shape),
            inputs=[rename.get(d, d) for d in ext_inputs],
            payload=payload,
        )

    new = Graph(graph.name)
    for name in graph.order:
        if name in owner:
            if name in fused_nodes:
                new.add_node(fused_nodes[name])
            continue
        old = graph.nodes[name]
        new.add_node(
            Node(
                name=old.name,
                kind=old.kind,
                shape=tuple(old.shape),
                op=old.op,
                inputs=[rename.get(d, d) for d in old.inputs],
                initializer=old.initializer,
                payload=old.payload,
                tags=dict(old.tags),
            )
        )
    for out in graph.outputs:
        new.mark_output(rename.get(out, out))
    return new
