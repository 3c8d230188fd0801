"""Lane grouping for the batched control plane.

The batched control-plane kernels (sensor reads, alpha*C tracking, the
DTPM forecast) evaluate a shared model object with one NumPy call over
every lane that uses it.  Lanes built from one model bundle all share
their models, so the usual result is a single group spanning the batch.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple, Union

import numpy as np

#: Lanes of one group: the whole batch, or an index array.
Lanes = Union[slice, np.ndarray]


def lane_groups(keys: Sequence[Hashable]) -> List[Tuple[int, Lanes]]:
    """Group lanes by key, in first-seen order.

    Returns ``(first lane, lanes)`` pairs.  ``lanes`` is ``slice(None)``
    when every key is equal (no gather/scatter copies), otherwise the
    sorted index array of the group's lanes.
    """
    first = keys[0]
    if all(key == first for key in keys):
        return [(0, slice(None))]
    groups: Dict[Hashable, List[int]] = {}
    for lane, key in enumerate(keys):
        groups.setdefault(key, []).append(lane)
    return [(members[0], np.array(members)) for members in groups.values()]
