"""Tests of the benchmark's own helpers: ``python3 -m pytest migbench -q``."""

from __future__ import annotations

import io
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from migbench import inputs, oracle, stats  # noqa: E402
from migbench.workloads import client_plans  # noqa: E402


# -- tail percentile ---------------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(i) for i in range(1, 41)]  # 1..40
    t = stats.tail(samples)
    assert t.value == 30.0
    assert sum(1 for s in samples if s > t.value) == 10
    assert t.percentile == pytest.approx(75.0)
    assert t.samples == 40


def test_tail_ignores_input_order():
    t = stats.tail([float(i) for i in range(100, 0, -1)])
    assert t.value == 90.0 and t.percentile == pytest.approx(90.0)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)
    assert stats.tail([1.0] * 11).percentile == pytest.approx(100.0 / 11)


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        stats.Span(1, None, "flow", 0.0, 10.0),
        stats.Span(2, 1, "cuts", 1.0, 4.0),
        stats.Span(3, 1, "rewrite", 5.0, 9.0),
        stats.Span(4, 3, "npn", 6.0, 7.5),
    ]
    selfs = stats.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 4.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(4.0 - 1.5)
    assert selfs[4] == pytest.approx(1.5)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        stats.Span(1, None, "a", 0.0, 10.0),
        stats.Span(2, 1, "b", 2.0, 6.0),
        stats.Span(3, 1, "c", 4.0, 8.0),    # overlaps b
        stats.Span(4, 1, "d", 9.0, 12.0),   # runs past its parent
    ]
    assert stats.self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)


# -- oracle --------------------------------------------------------------------

BLIF = """.model m
.inputs a b c
.outputs y z
.names a b c n1
11- 1
1-1 1
-11 1
.names n1 y
1 1
.names a b z
10 1
.end
"""

BENCH = """INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
OUTPUT(z)
nb = NOT(b)
y = MAJ(a, b, c)
z = AND(a, nb)
"""

# z = a & !b: one AND gate, literal 6 = 2 & !4
AAG = "aag 3 2 0 1 1\n2\n4\n6\n6 2 5\ni0 a\ni1 b\no0 z\n"
AAG_BLIF = ".model m\n.inputs a b\n.outputs z\n.names a b z\n10 1\n.end\n"


def test_oracle_accepts_one_function_in_every_format():
    assert oracle.check(BLIF, "blif", BENCH, "bench") is None
    assert oracle.check(BENCH, "bench", BLIF, "blif") is None
    assert oracle.check(AAG, "aag", AAG_BLIF, "blif") is None


def test_oracle_rejects_an_inverted_output():
    inverted = BLIF.replace(".names n1 y\n1 1", ".names n1 y\n0 1")
    assert inverted != BLIF
    reason = oracle.check(BLIF, "blif", inverted, "blif")
    assert reason is not None and "'y'" in reason
    assert oracle.check(AAG.replace("\n6\n6 2 5", "\n7\n6 2 5"), "aag", AAG_BLIF, "blif")


def test_oracle_rejects_an_inverted_output_of_a_real_flow():
    """A wide (sampled) circuit through the real flow, then one output flipped."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.aig.convert import aig_to_mig
    from repro.core.mig import signal_not
    from repro.database.npn_db import NpnDatabase
    from repro.io.aiger import read_aag
    from repro.io.blif import write_blif
    from repro.opt.flow import run_flow

    item = inputs.build(inputs.ItemSpec("voter", 21, "aag"))
    assert item.pis > oracle.EXHAUSTIVE_LIMIT
    out, _ = run_flow(aig_to_mig(read_aag(io.StringIO(item.text))), NpnDatabase.load(), ["BF"])
    good = io.StringIO()
    write_blif(out, good)
    assert oracle.check(item.text, "aag", good.getvalue(), "blif") is None
    out._outputs[0] = signal_not(out._outputs[0])
    out.invalidate_arrays()
    bad = io.StringIO()
    write_blif(out, bad)
    assert oracle.check(item.text, "aag", bad.getvalue(), "blif") is not None


def test_exhaustive_words_enumerate_every_minterm():
    words, mask = oracle.input_words(["x0", "x1", "x2"], seed=0)
    assert mask == 0xFF
    minterms = {tuple((words[f"x{i}"] >> k) & 1 for i in range(3)) for k in range(8)}
    assert len(minterms) == 8


def test_random_words_are_seeded():
    names = [f"x{i}" for i in range(20)]
    assert oracle.input_words(names, 5) == oracle.input_words(names, 5)
    assert oracle.input_words(names, 5) != oracle.input_words(names, 6)


# -- seeded draw -----------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(inputs.POOLS))
def test_draw_is_stable_per_seed_and_covers_every_kind(workload):
    first = inputs.draw(workload, 7)
    assert first == inputs.draw(workload, 7)
    assert sorted(s.kind for s in first) == sorted(k for k, _ in inputs.POOLS[workload])
    assert len({tuple(inputs.draw(workload, seed)) for seed in range(10)}) > 1
    if workload != "flow-suite":  # same circuits and formats, another order
        assert inputs.draw(workload, 8) != first
        assert sorted(first, key=str) == sorted(inputs.draw(workload, 8), key=str)


def test_draw_is_pinned():
    """Changing the draw changes every workload's inputs; it must be deliberate."""
    assert [s.label for s in inputs.draw("cut5-cec", 1)][:4] == PINNED_CUT5_SEED1


def test_serve_plans_repeat_only_completed_uploads():
    for plan in client_plans(14, seed=3):
        done = set()
        for position, (index, repeat) in enumerate(plan, start=1):
            if repeat:
                assert index in done and position % 4 == 0
            else:
                done.add(index)
    assert client_plans(14, 3) == client_plans(14, 3)


PINNED_CUT5_SEED1 = ['int2float-8.blif', 'priority-20.blif', 'divisor-4.blif', 'log2-5.blif']
