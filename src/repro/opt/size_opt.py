"""Size-oriented MIG cleanup passes.

Complements the functional-hashing rewriter with network-level hygiene:

* :func:`strash_rebuild` — re-runs structural hashing over the whole
  network, folding duplicate gates and re-applying the unit majority
  rules; removes dead nodes.
* :func:`functional_reduce` — merges functionally equivalent (or
  antivalent) gates, detected by exhaustive simulation.  Exact and safe
  for networks of up to 14 primary inputs; the global-simulation table is
  the proof of equivalence.  (Large networks rely on structural hashing
  and rewriting; SAT-based fraiging over cone miters is provided by
  :mod:`repro.sat.cec` for spot checks.)
"""

from __future__ import annotations

from ..core.mig import Mig, signal_not
from ..core.truth_table import tt_mask, tt_maj, tt_var

__all__ = ["strash_rebuild", "functional_reduce"]

_FUNC_REDUCE_LIMIT = 14


def strash_rebuild(mig: Mig) -> Mig:
    """Copy without the dead gates (:meth:`~repro.core.kernel.Network.cleanup`).

    Only dead logic goes: a network built through ``Mig.maj`` holds no
    structural duplicates to fold, since the constructor probes the
    strash table before it appends a gate.
    """
    return mig.cleanup()


def functional_reduce(mig: Mig) -> Mig:
    """Merge gates that compute equal or complementary global functions.

    Requires ``num_pis <= 14`` (exhaustive simulation).  The first gate in
    topological order becomes the representative of its function class.
    """
    if mig.num_pis > _FUNC_REDUCE_LIMIT:
        raise ValueError(
            f"functional_reduce requires <= {_FUNC_REDUCE_LIMIT} inputs; "
            "use structural hashing / rewriting for larger networks"
        )
    n = mig.num_pis
    mask = tt_mask(n)
    new = Mig.like(mig)
    # function -> representative signal in the new network
    classes: dict[int, int] = {0: 0}
    values: dict[int, int] = {0: 0}
    mapping: dict[int, int] = {0: 0}
    for i in range(n):
        var = tt_var(n, i)
        classes[var] = 2 * (1 + i)
        values[1 + i] = var
        mapping[1 + i] = 2 * (1 + i)

    for node in mig.gates():
        a, b, c = mig.fanins(node)
        tt = tt_maj(
            values[a >> 1] ^ (mask if a & 1 else 0),
            values[b >> 1] ^ (mask if b & 1 else 0),
            values[c >> 1] ^ (mask if c & 1 else 0),
        )
        values[node] = tt
        existing = classes.get(tt)
        if existing is not None:
            mapping[node] = existing
            continue
        anti = classes.get(tt ^ mask)
        if anti is not None:
            mapping[node] = signal_not(anti)
            continue
        signal = new.maj(
            mapping[a >> 1] ^ (a & 1),
            mapping[b >> 1] ^ (b & 1),
            mapping[c >> 1] ^ (c & 1),
        )
        mapping[node] = signal
        classes[tt] = signal
    for s, name in zip(mig.outputs, mig.output_names):
        new.add_po(mapping[s >> 1] ^ (s & 1), name)
    return new.cleanup()
