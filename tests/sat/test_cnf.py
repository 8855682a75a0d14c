"""Tests for the CNF builder's gate and cardinality encodings."""

from __future__ import annotations

import time
from itertools import product

from repro.runtime.budget import Budget
from repro.sat.cnf import CnfBuilder


def enumerate_models(builder: CnfBuilder, variables: list[int]) -> set[tuple[bool, ...]]:
    """All models of the accumulated formula projected onto *variables*."""
    models = set()
    solver = builder.solver
    while solver.solve() is True:
        assignment = tuple(solver.model_value(v) for v in variables)
        models.add(assignment)
        # Block this assignment.
        solver.add_clause([-v if solver.model_value(v) else v for v in variables])
    return models


class TestGateEncodings:
    def test_maj_gate(self):
        b = CnfBuilder()
        out, x, y, z = b.new_vars(4)
        b.maj_gate(out, x, y, z)
        models = enumerate_models(b, [x, y, z, out])
        assert len(models) == 8
        for vx, vy, vz, vo in models:
            assert vo == (int(vx) + int(vy) + int(vz) >= 2)

    def test_xor_gate(self):
        b = CnfBuilder()
        out, x, y = b.new_vars(3)
        b.xor_gate(out, x, y)
        for vx, vy, vo in enumerate_models(b, [x, y, out]):
            assert vo == (vx != vy)

    def test_and_or_gates(self):
        b = CnfBuilder()
        o1, o2, x, y, z = b.new_vars(5)
        b.and_gate(o1, [x, y, z])
        b.or_gate(o2, [x, y, z])
        for vx, vy, vz, v1, v2 in enumerate_models(b, [x, y, z, o1, o2]):
            assert v1 == (vx and vy and vz)
            assert v2 == (vx or vy or vz)

    def test_mux_gate(self):
        b = CnfBuilder()
        out, sel, t, e = b.new_vars(4)
        b.mux_gate(out, sel, t, e)
        for vs, vt, ve, vo in enumerate_models(b, [sel, t, e, out]):
            assert vo == (vt if vs else ve)

    def test_iff_and_implies(self):
        b = CnfBuilder()
        x, y = b.new_vars(2)
        b.iff(x, y)
        models = enumerate_models(b, [x, y])
        assert models == {(False, False), (True, True)}


class TestCardinality:
    def test_exactly_one(self):
        b = CnfBuilder()
        vs = b.new_vars(4)
        b.exactly_one(vs)
        models = enumerate_models(b, vs)
        assert len(models) == 4
        for model in models:
            assert sum(model) == 1

    def test_at_most_one_allows_zero(self):
        b = CnfBuilder()
        vs = b.new_vars(3)
        b.at_most_one(vs)
        models = enumerate_models(b, vs)
        assert all(sum(m) <= 1 for m in models)
        assert (False, False, False) in models

    def test_at_least_one(self):
        b = CnfBuilder()
        vs = b.new_vars(3)
        b.at_least_one(vs)
        models = enumerate_models(b, vs)
        assert len(models) == 7
        assert all(any(m) for m in models)

    def test_implies_clause(self):
        b = CnfBuilder()
        a, x, y = b.new_vars(3)
        b.implies_clause(a, [x, y])
        b.add_unit(a)
        models = enumerate_models(b, [x, y])
        assert (False, False) not in models


class TestUnits:
    def test_add_unit_forces_value(self):
        b = CnfBuilder()
        x = b.new_var()
        b.add_unit(-x)
        assert b.solve() is True
        assert not b.value(x)


class TestBudget:
    def test_cnf_builder_clamps_to_budget(self):
        budget = Budget(deadline=time.monotonic() - 1.0)
        builder = CnfBuilder(budget=budget)
        a = builder.new_var()
        builder.add_clause([a])
        assert builder.solve() is None
