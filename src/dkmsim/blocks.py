"""Block partitions of coordinate vectors.

A partition splits R^n into m contiguous blocks with fixed dimensions.
Points are plain 1-D float arrays; ``check_point`` enforces the invariants
(length match, all coordinates finite) wherever vectors enter the API.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .errors import BlockIndexError, DimensionMismatchError, NonFiniteError, ParameterError

Float = np.float64


class BlockPartition:
    """Contiguous partition of coordinates 0..n-1 into m blocks.

    Block ``l`` (0-based) covers ``dims[l]`` consecutive coordinates.
    """

    def __init__(self, dims: tuple[int, ...] | list[int]):
        dims = tuple(int(d) for d in dims)
        if len(dims) == 0:
            raise ParameterError("a partition needs at least one block")
        if any(d < 1 for d in dims):
            raise ParameterError(f"block dimensions must be positive, got {dims}")
        self.dims = dims
        self.offsets = tuple(int(o) for o in np.concatenate(([0], np.cumsum(dims))))
        self.n = self.offsets[-1]
        self.m = len(dims)

    @classmethod
    def single(cls, n: int) -> "BlockPartition":
        """The trivial partition: one block holding all n coordinates."""
        return cls((n,))

    def block_slice(self, l: int) -> slice:
        if not 0 <= l < self.m:
            raise BlockIndexError(l, self.m)
        return slice(self.offsets[l], self.offsets[l + 1])

    def __eq__(self, other) -> bool:
        return isinstance(other, BlockPartition) and self.dims == other.dims

    def __hash__(self) -> int:
        return hash(self.dims)

    def __repr__(self) -> str:
        return f"BlockPartition({self.dims})"


def as_point(x, n: int | None = None) -> NDArray[Float]:
    """Validate and return x as a finite 1-D float64 array.

    Raises DimensionMismatchError on wrong shape/length and NonFiniteError
    if any coordinate is NaN or infinite.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D point, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise DimensionMismatchError(f"point has {arr.shape[0]} coordinates, expected {n}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("point has non-finite coordinates")
    return arr


def as_states(x, n_agents: int | None = None, n: int | None = None) -> NDArray[Float]:
    """Validate an (agents x coordinates) state matrix."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D state matrix, got shape {arr.shape}")
    if n_agents is not None and arr.shape[0] != n_agents:
        raise DimensionMismatchError(f"state matrix has {arr.shape[0]} rows, expected {n_agents} agents")
    if n is not None and arr.shape[1] != n:
        raise DimensionMismatchError(f"state matrix has {arr.shape[1]} columns, expected {n}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("state matrix has non-finite entries")
    return arr
