"""Partition arithmetic and point/state validation."""

import numpy as np
import pytest

from dkmsim import BlockPartition
from dkmsim.blocks import as_point, as_states
from dkmsim.errors import BlockIndexError, DimensionMismatchError, NonFiniteError, ParameterError


def test_partition_layout():
    part = BlockPartition((2, 1, 3))
    assert part.m == 3
    assert part.n == 6
    assert part.offsets == (0, 2, 3, 6)
    assert part.block_slice(0) == slice(0, 2)
    assert part.block_slice(2) == slice(3, 6)


def test_single_partition():
    part = BlockPartition.single(4)
    assert part.dims == (4,)
    assert part.m == 1
    assert part.block_slice(0) == slice(0, 4)


def test_partition_rejects_bad_dims():
    with pytest.raises(ParameterError):
        BlockPartition(())
    with pytest.raises(ParameterError):
        BlockPartition((2, 0))
    with pytest.raises(ParameterError):
        BlockPartition((-1,))


def test_block_index_out_of_range():
    part = BlockPartition((2, 2))
    with pytest.raises(BlockIndexError):
        part.block_slice(2)
    with pytest.raises(BlockIndexError):
        part.block_slice(-1)


def test_partition_equality_and_hash():
    assert BlockPartition((1, 2)) == BlockPartition([1, 2])
    assert BlockPartition((1, 2)) != BlockPartition((2, 1))
    assert hash(BlockPartition((1, 2))) == hash(BlockPartition((1, 2)))


def test_as_point_accepts_lists():
    x = as_point([1, 2, 3])
    assert x.dtype == np.float64
    assert np.array_equal(x, [1.0, 2.0, 3.0])


def test_as_point_rejects_bad_shapes():
    with pytest.raises(DimensionMismatchError):
        as_point([[1.0, 2.0]])
    with pytest.raises(DimensionMismatchError):
        as_point([1.0, 2.0], n=3)


def test_as_point_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        as_point([1.0, np.nan])
    with pytest.raises(NonFiniteError):
        as_point([np.inf, 0.0])


def test_as_states_shape_checks():
    states = as_states([[1.0, 2.0], [3.0, 4.0]], n_agents=2, n=2)
    assert states.shape == (2, 2)
    with pytest.raises(DimensionMismatchError):
        as_states([1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        as_states([[1.0], [2.0]], n_agents=3)
    with pytest.raises(DimensionMismatchError):
        as_states([[1.0], [2.0]], n=2)
    with pytest.raises(NonFiniteError):
        as_states([[np.nan]])
