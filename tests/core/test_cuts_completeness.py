"""Cut-enumeration completeness: cross-check against brute force.

The recursive ⊗k enumeration with domination pruning must find every
*irredundant* k-feasible cut (no cut that is a superset of another).  We
verify this on small random MIGs by enumerating all candidate leaf sets
exhaustively and checking the cut definition from Sec. II-C directly.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cuts import enumerate_cut_set
from repro.core.mig import CONST0, Mig


@st.composite
def small_mig(draw):
    mig = Mig(3)
    signals = [CONST0] + mig.pi_signals()
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        picks = draw(
            st.lists(
                st.tuples(st.integers(0, len(signals) - 1), st.booleans()),
                min_size=3,
                max_size=3,
            )
        )
        ops = [signals[i] ^ int(c) for i, c in picks]
        signals.append(mig.maj(*ops))
    mig.add_po(signals[-1])
    return mig


def is_cut(mig: Mig, root: int, leaves: set[int]) -> bool:
    """Direct check of the Sec. II-C cut definition."""
    # 1. every path from root to a terminal passes through a leaf
    #    (paths to the constant node exempt).
    visited_leaves: set[int] = set()

    def covered(node: int) -> bool:
        if node in leaves:
            visited_leaves.add(node)
            return True
        if node == 0:
            return True  # constant exemption
        if not mig.is_gate(node):
            return False  # reached a non-leaf terminal
        return all(covered(s >> 1) for s in mig.fanins(node))

    if root in leaves:
        return leaves == {root}
    if not mig.is_gate(root):
        return False
    if not covered(root):
        return False
    # 2. every leaf lies on some root-terminal path (was actually reached).
    return visited_leaves == leaves


def brute_force_cuts(mig: Mig, root: int, k: int) -> set[frozenset[int]]:
    """All irredundant k-feasible cuts of *root*, by exhaustive search."""
    candidates = [n for n in range(1, mig.num_nodes)]
    cuts: set[frozenset[int]] = set()
    for size in range(1, k + 1):
        for leaves in combinations(candidates, size):
            leaf_set = set(leaves)
            if is_cut(mig, root, leaf_set):
                cuts.add(frozenset(leaf_set))
    # Remove dominated cuts (proper supersets of another cut).
    return {
        cut
        for cut in cuts
        if not any(other < cut for other in cuts)
    }


class TestCompleteness:
    @given(small_mig(), st.integers(min_value=2, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_enumeration_matches_brute_force(self, mig, k):
        cuts = enumerate_cut_set(mig, k, cut_limit=1000)
        for node in mig.gates():
            enumerated = {
                frozenset(c) for c in cuts[node]
            }
            expected = brute_force_cuts(mig, node, k)
            # Every irredundant cut must be enumerated...
            missing = expected - enumerated
            assert not missing, (node, missing)
            # ...and everything enumerated must be a real cut.
            for leaves in cuts[node]:
                assert is_cut(mig, node, set(leaves)), (node, leaves)
