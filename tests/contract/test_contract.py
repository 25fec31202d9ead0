"""Every canonical output the corpus covers still has its committed digest.

One test per group (a perfbench workload at one seed, or the CLI
commands), so a moved number names its workload, seed and input.  See
``corpus.py`` for what each entry renders and how to regenerate.
"""

import pytest

from tests.contract.corpus import GROUPS, committed


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_outputs_keep_their_digests(group):
    want = {
        k: v for k, v in committed().items()
        if k.startswith(f"{group}/") or (group == "cli" and k.startswith("cli/"))
    }
    got = GROUPS[group]()
    assert want, f"no committed digests for {group}"
    moved = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    assert not moved, f"digests differ: {moved}"
