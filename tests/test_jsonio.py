import numpy as np
import pytest

from amnm.jsonio import complex_to_json, dumps


def _per_element(value):
    """complex_to_json one element at a time, the reference for the stacked
    conversion."""
    arr = np.asarray(value)
    if arr.ndim == 0:
        z = complex(arr)
        return [z.real, z.imag]
    return [_per_element(sub) for sub in arr]


TINY = 5e-324  # the smallest subnormal
VALUES = [
    0, 1.5, -0.0, 3 + 4j, complex(-0.0, -0.0), np.complex64(1 + 2j), np.float32(0.1), np.int64(7),
    np.array(2.5), np.array(1j), np.zeros(0), np.zeros((2, 0)), np.zeros((0, 3)), np.zeros((2, 0, 3)),
    np.arange(5), np.array([-0.0, 0.0]), np.array([complex(-0.0, TINY), complex(TINY, -0.0)]),
    np.array([2.2250738585072014e-308 / 3, -TINY]), [1, 2j, 3.5], [[1, 2], [3, 4]],
    np.random.default_rng(0).standard_normal((2, 3, 4, 2)).view(complex)[..., 0],
]


@pytest.mark.parametrize("value", VALUES, ids=range(len(VALUES)))
def test_complex_to_json_matches_the_per_element_conversion(value):
    assert dumps(complex_to_json(value)) == dumps(_per_element(value))
