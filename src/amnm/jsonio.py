"""Canonical JSON encoding helpers.

Complex scalars are encoded as [re, im] pairs, arrays as nested lists.
Documents are rendered with sorted keys and shortest-roundtrip floats so a
given object always serializes to identical bytes.
"""

from __future__ import annotations

import json

import numpy as np


def complex_to_json(value):
    """ndarray or scalar -> nested lists of [re, im] pairs."""
    arr = np.asarray(value)
    if arr.ndim == 0:
        z = complex(arr)
        return [z.real, z.imag]
    return [complex_to_json(sub) for sub in arr]


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)


def write_json(path, obj) -> None:
    with open(path, "w") as handle:
        handle.write(dumps(obj))
        handle.write("\n")
