from __future__ import annotations

import pytest

from randcl import DLO, Partition, Randomization, finite_enum


@pytest.fixture
def swap_pair() -> Randomization:
    """Two equal atoms over the ordered theory; a and b swap 0 and 1.

    The canonical instance: hi is the pointwise max of a and b, lo the
    pointwise min, and definability exchange fails between b and hi.
    """
    part = Partition([("w1", "1/2"), ("w2", "1/2")])
    return Randomization.build(
        DLO,
        part,
        {"a": (0, 1), "b": (1, 0), "hi": (1, 1), "lo": (0, 0)},
    )


@pytest.fixture
def coin() -> Randomization:
    """Two-valued enumerated domain on a fair two-atom space; b is the
    identity coin, pointwise definable everywhere yet not definable."""
    part = Partition([("w1", "1/2"), ("w2", "1/2")])
    return Randomization.build(
        finite_enum(2),
        part,
        {"b": (0, 1), "zero": (0, 0), "one": (1, 1)},
    )
