"""The graph's reader index against full scans of the node list.

``Graph.consumers`` reads an index that ``add_node`` maintains;
``consumer_counts`` still scans.  Both must equal the full-graph scans
kept here as the oracle, on random DAGs with duplicate reads and several
outputs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import GraphError
from repro.graph.ir import Graph, Node, NodeKind
from repro.graph.trace import GraphBuilder
from repro.ops import Add, Gelu, Gemm


def scan_consumers(graph: Graph, name: str) -> list[Node]:
    """Readers of ``name`` by scanning every node (the oracle)."""
    return [graph.nodes[n] for n in graph.order if name in graph.nodes[n].inputs]


def scan_consumer_counts(graph: Graph) -> dict[str, int]:
    """Reads per node, each duplicate read and output mark counted."""
    counts = {n: 0 for n in graph.nodes}
    for n in graph.order:
        for dep in graph.nodes[n].inputs:
            counts[dep] += 1
    for out in graph.outputs:
        counts[out] += 1
    return counts


@st.composite
def dags(draw):
    """A random DAG built node by node, reads drawn with repetition."""
    g = Graph("random")
    n_inputs = draw(st.integers(min_value=1, max_value=4))
    for i in range(n_inputs):
        g.add_node(Node(f"in{i}", NodeKind.INPUT, (4,)))
    n_ops = draw(st.integers(min_value=0, max_value=30))
    for i in range(n_ops):
        existing = list(g.order)
        reads = draw(
            st.lists(st.sampled_from(existing), min_size=1, max_size=4)
        )
        g.add_node(Node(f"op{i}", NodeKind.OP, (4,), inputs=reads))
    for out in draw(st.lists(st.sampled_from(list(g.order)), max_size=4)):
        g.mark_output(out)
    return g


def assert_index_matches_scans(g: Graph) -> None:
    for name in [*g.order, "not-a-node"]:
        got = g.consumers(name)
        want = scan_consumers(g, name)
        assert [id(n) for n in got] == [id(n) for n in want], name
    assert g.consumer_counts() == scan_consumer_counts(g)


@settings(max_examples=150, deadline=None)
@given(g=dags())
def test_index_equals_full_scans(g):
    assert_index_matches_scans(g)


@settings(max_examples=40, deadline=None)
@given(g=dags())
def test_clone_rebuilds_the_index(g):
    assert_index_matches_scans(g.clone())


def test_duplicate_read_is_one_consumer_and_two_reads():
    gb = GraphBuilder("dup")
    x = gb.input("x", (4, 8))
    w = gb.param("w", (8, 8))
    h = gb.call(Gemm(), x, w, name="h")
    d = gb.call(Add(), h, h, name="double")
    a = gb.call(Gelu(), h, name="act")
    gb.output(d)
    gb.output(a)
    g = gb.finish()
    assert [n.name for n in g.consumers("h")] == ["double", "act"]
    assert g.consumer_counts()["h"] == 3
    assert g.consumer_counts()["double"] == 1  # the output mark


def test_consumers_returns_a_copy():
    g = Graph("copy")
    g.add_node(Node("x", NodeKind.INPUT, (4,)))
    g.add_node(Node("y", NodeKind.OP, (4,), inputs=["x"]))
    g.consumers("x").clear()
    assert [n.name for n in g.consumers("x")] == ["y"]


def test_failed_add_leaves_the_index_untouched():
    g = Graph("fail")
    g.add_node(Node("x", NodeKind.INPUT, (4,)))
    with pytest.raises(GraphError):
        g.add_node(Node("y", NodeKind.OP, (4,), inputs=["x", "ghost"]))
    assert g.consumers("x") == []
    assert g.consumer_counts() == {"x": 0}
