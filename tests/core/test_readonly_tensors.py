"""Regression tests: the cached array the pipeline shares is frozen.

The ``no-cached-tensor-mutation`` lint rule is the static layer of this
invariant; these tests pin the runtime layer — ``setflags(write=False)``
on :attr:`PlanLoadTable.load_matrix` — so any in-place write raises
immediately at the write site instead of corrupting every support-mask
and score query of GreedyPhy/OptPrune at once.
"""

from __future__ import annotations

import pytest

from repro.core import PlanLoadTable
from repro.query import LogicalPlan


@pytest.fixture
def table() -> PlanLoadTable:
    plans = [LogicalPlan((0, 1, 2)), LogicalPlan((2, 1, 0))]
    loads = {
        plans[0]: {0: 30.0, 1: 12.0, 2: 4.0},
        plans[1]: {0: 5.0, 1: 11.0, 2: 25.0},
    }
    weights = {plans[0]: 0.7, plans[1]: 0.3}
    return PlanLoadTable(plans, loads, weights)


class TestLoadMatrixFrozen:
    def test_item_store_raises(self, table):
        matrix = table.load_matrix
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 123.0

    def test_slice_store_raises(self, table):
        with pytest.raises(ValueError):
            table.load_matrix[:, 0] = 0.0

    def test_inplace_op_raises(self, table):
        matrix = table.load_matrix
        with pytest.raises(ValueError):
            matrix += 1.0  # repro-lint: disable=no-cached-tensor-mutation -- this test exists to prove the runtime freeze rejects exactly this write

    def test_views_inherit_freeze(self, table):
        # A view aliases the table; NumPy propagates non-writeability.
        view = table.load_matrix[1:, :]
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0] = 9.0

    def test_copy_is_writable_and_detached(self, table):
        copy = table.load_matrix.copy()
        original = table.load_matrix[0, 0]
        copy[0, 0] = original + 1.0
        assert table.load_matrix[0, 0] == original
        assert table.load(0, table.operator_ids[0]) == original
