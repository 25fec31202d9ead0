"""One multi-region rewrite equals rewriting region by region.

``replace_subgraphs`` collapses every region in one rebuild of the graph.
It must give the graph that applying ``replace_subgraph`` to each region
in turn gives, and the single-region rebuild kept here
(``sequential_oracle``) gives: same node order, kinds, inputs, shapes,
outputs and ``original_nodes``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import GraphError
from repro.graph.ir import Graph, Node, NodeKind
from repro.graph.rewrite import FusedNodePayload, replace_subgraph, replace_subgraphs
from repro.graph.trace import GraphBuilder
from repro.models import build_model
from repro.models.config import MODEL_ZOO
from repro.ops import Add, Gelu
from repro.runtime.capture import capture_attention_sites


def oracle_replace_subgraph(graph, node_names, payload, fused_name=None):
    """One region collapsed by a full rebuild with scans (the oracle)."""
    if not node_names:
        raise GraphError("cannot fuse an empty node list")
    region = set(node_names)
    for n in node_names:
        if n not in graph.nodes:
            raise GraphError(f"unknown node {n!r} in fusion region")
        if graph.nodes[n].kind not in (NodeKind.OP, NodeKind.FUSED):
            raise GraphError(f"cannot fuse non-op node {n!r}")
    last = node_names[-1]
    for n in node_names[:-1]:
        readers = [
            m for m in graph.order
            if n in graph.nodes[m].inputs and m not in region
        ]
        if readers or n in graph.outputs:
            raise GraphError(f"interior node {n!r} escapes")
    ext_inputs: list[str] = []
    for n in node_names:
        for dep in graph.nodes[n].inputs:
            if dep not in region and dep not in ext_inputs:
                ext_inputs.append(dep)
    fused_name = fused_name or f"fused_{last}"
    if fused_name in graph.nodes and fused_name not in region:
        raise GraphError(f"fused node name {fused_name!r} collides")
    payload.original_nodes = list(node_names)
    new = Graph(graph.name)
    for name in graph.order:
        if name in region:
            if name == last:
                new.add_node(Node(
                    name=fused_name, kind=NodeKind.FUSED,
                    shape=tuple(graph.nodes[last].shape),
                    inputs=list(ext_inputs), payload=payload,
                ))
            continue
        old = graph.nodes[name]
        new.add_node(Node(
            name=old.name, kind=old.kind, shape=tuple(old.shape), op=old.op,
            inputs=[fused_name if d in region else d for d in old.inputs],
            initializer=old.initializer, payload=old.payload,
            tags=dict(old.tags),
        ))
    for out in graph.outputs:
        new.mark_output(fused_name if out in region else out)
    return new


def sequential(rewrite, graph, regions):
    for names, payload, fused_name in regions:
        graph = rewrite(graph, list(names), payload, fused_name)
    return graph


def fresh(regions):
    """The same regions with new payloads (a rewrite stamps its payloads)."""
    return [
        (list(names), FusedNodePayload(p.kind, p.binding), fused)
        for names, p, fused in regions
    ]


def describe(graph: Graph) -> tuple:
    """Everything a rewrite decides, comparable across graphs."""
    return (
        graph.name,
        list(graph.order),
        [
            (
                n.name, n.kind, tuple(n.shape), id(n.op), list(n.inputs),
                n.payload.binding if n.kind is NodeKind.FUSED else id(n.payload),
                list(n.payload.original_nodes) if n.kind is NodeKind.FUSED else None,
                dict(n.tags),
            )
            for n in (graph.nodes[name] for name in graph.order)
        ],
        list(graph.outputs),
    )


def assert_rewrites_agree(graph, regions):
    once = replace_subgraphs(graph, fresh(regions))
    assert describe(once) == describe(sequential(replace_subgraph, graph, fresh(regions)))
    assert describe(once) == describe(
        sequential(oracle_replace_subgraph, graph, fresh(regions))
    )
    return once


@pytest.mark.parametrize("model", sorted(MODEL_ZOO))
def test_attention_sites_of_every_zoo_model(model):
    graph = build_model(MODEL_ZOO[model], 1, 32).graph
    captures = capture_attention_sites(graph)
    assert captures
    regions = [
        (list(c.region), FusedNodePayload("mha", i), f"mha@{c.region[-1]}")
        for i, c in enumerate(captures)
    ]
    once = assert_rewrites_agree(graph, regions)
    assert len(once) == len(graph) - sum(len(c.region) - 1 for c in captures)
    once.validate()


@st.composite
def chain_regions(draw):
    """A chain of Gelu ops with side reads, cut into disjoint regions.

    Regions come in any order, so a region may read a region that is
    collapsed after it; fused names are defaulted or explicit.
    """
    gb = GraphBuilder("chain")
    h = gb.input("x", (4,))
    n = draw(st.integers(min_value=1, max_value=16))
    names = []
    for i in range(n):
        if i >= 2 and draw(st.booleans()):
            # Read an earlier chain value too (a residual edge).
            h = gb.call(Add(), h, names[draw(st.integers(0, i - 2))], name=f"n{i}")
        else:
            h = gb.call(Gelu(), h, name=f"n{i}")
        names.append(h)
    gb.output(h)
    graph = gb.finish()
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    runs = [names[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    chosen = draw(st.lists(st.sampled_from(range(len(runs))), unique=True))
    regions = [
        (
            [s.name for s in runs[k]],
            FusedNodePayload("t", k),
            draw(st.sampled_from([None, f"f{k}"])),
        )
        for k in chosen
    ]
    return graph, regions


@settings(max_examples=120, deadline=None)
@given(case=chain_regions())
def test_random_regions_agree_with_sequential(case):
    graph, regions = case
    try:
        sequential(oracle_replace_subgraph, graph, fresh(regions))
    except GraphError:
        # A residual edge made a region's interior escape: the one-pass
        # rewrite must refuse it too.
        with pytest.raises(GraphError):
            replace_subgraphs(graph, fresh(regions))
        return
    assert_rewrites_agree(graph, regions)


def gelu_chain(n: int) -> Graph:
    gb = GraphBuilder("g")
    h = gb.input("x", (4,))
    for i in range(n):
        h = gb.call(Gelu(), h, name=f"n{i}")
    gb.output(h)
    return gb.finish()


def test_zero_regions_return_the_input_graph():
    g = gelu_chain(3)
    assert replace_subgraphs(g, []) is g


def test_overlapping_regions_raise():
    g = gelu_chain(4)
    with pytest.raises(GraphError, match="two fusion regions"):
        replace_subgraphs(g, [
            (["n0", "n1"], FusedNodePayload("t", 0), "a"),
            (["n1", "n2"], FusedNodePayload("t", 1), "b"),
        ])


@pytest.mark.parametrize("names", [("f", "f"), ("n3", None), (None, "fused_n1")])
def test_colliding_fused_names_raise(names):
    g = gelu_chain(4)
    with pytest.raises(GraphError, match="collides"):
        replace_subgraphs(g, [
            (["n0", "n1"], FusedNodePayload("t", 0), names[0]),
            (["n2"], FusedNodePayload("t", 1), names[1]),
        ])


def test_fused_name_may_reuse_an_earlier_regions_node():
    # Sequentially, "n0" is gone once the first region is collapsed.
    g = gelu_chain(4)
    once = assert_rewrites_agree(g, [
        (["n0", "n1"], FusedNodePayload("t", 0), "f"),
        (["n2", "n3"], FusedNodePayload("t", 1), "n0"),
    ])
    assert once.order == ["x", "f", "n0"]
    assert once.node("n0").inputs == ["f"]
    assert once.outputs == ["n0"]


def test_region_reading_a_later_region():
    g = gelu_chain(4)
    once = assert_rewrites_agree(g, [
        (["n2", "n3"], FusedNodePayload("t", 0), "late"),
        (["n0", "n1"], FusedNodePayload("t", 1), "early"),
    ])
    assert once.node("late").inputs == ["early"]
