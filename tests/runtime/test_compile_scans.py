"""A compile builds its graphs once and scans them a bounded number of times.

The attention rewrite collapses every site in one rebuild, segment
resolution reads the graph's reader index, and only chain extraction,
attention capture and the MHA pattern match still scan the whole graph.
"""

import repro
from repro.graph.ir import Graph


def test_bert_large_compile_builds_two_graphs(monkeypatch):
    seen = {"graphs": 0, "scans": 0}
    init, scan = Graph.__init__, Graph.consumer_counts

    def counting_init(self, *args, **kwargs):
        seen["graphs"] += 1
        init(self, *args, **kwargs)

    def counting_scan(self):
        seen["scans"] += 1
        return scan(self)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    monkeypatch.setattr(Graph, "consumer_counts", counting_scan)
    compiled = repro.compile_model("bert-large", 1, 128, mask="bigbird")
    # The built graph and its rewrite, with all 24 attention sites fused.
    assert seen["graphs"] == 2
    assert len(compiled.prepared.attention) == 24
    assert seen["scans"] <= 4

