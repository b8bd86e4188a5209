import numpy as np
import pytest

from amnm.rng import _MASK64, complex_gaussian, fold_indices, stream


def test_fold_indices_packs_twenty_bits_per_component():
    assert fold_indices(()) == 0
    assert fold_indices((7,)) == 7
    assert fold_indices((1, 2, 3)) == 1 + (2 << 20) + (3 << 40)
    assert fold_indices((0, 0, 0, 15)) == 15 << 60  # the largest fourth component
    assert fold_indices((2**20 - 1,) * 3) == 2**60 - 1


@pytest.mark.parametrize("indices", [(0, 0, 0, 16), (1, 0, 0, 0, 5), (0, 0, 0, 0, 1)])
def test_fold_indices_refuses_words_past_64_bits(indices):
    # they used to lose their high bits: (0, 0, 0, 16) folded to 0 like (0,)
    with pytest.raises(ValueError, match="64 bits"):
        fold_indices(indices)
    with pytest.raises(ValueError):
        stream(3, *indices)


@pytest.mark.parametrize("indices", [(-1,), (2**20,), (0, 2**20)])
def test_fold_indices_refuses_components_out_of_range(indices):
    with pytest.raises(ValueError, match="out of range"):
        fold_indices(indices)


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, -7])
@pytest.mark.parametrize("indices", [(5,), (3, 1), (2**20 - 1, 0, 9)])
def test_stream_draws_as_philox_keyed_directly(seed, indices):
    # the key handed over as a seed sequence gives Philox(key=...)'s draws
    key = np.array([seed & _MASK64, fold_indices(indices)], dtype=np.uint64)
    direct = np.random.Generator(np.random.Philox(key=key))
    ours = stream(seed, *indices)
    assert np.array_equal(ours.standard_normal(64), direct.standard_normal(64))
    assert np.array_equal(ours.integers(0, 2**62, 16), direct.integers(0, 2**62, 16))
    jumped, direct_jumped = ours.bit_generator.jumped(), direct.bit_generator.jumped()
    assert np.array_equal(np.random.Generator(jumped).random(8), np.random.Generator(direct_jumped).random(8))


def _complex_gaussian_two_draws(rng, shape):
    """Real and imaginary parts in two draws, the reference for the one-draw form."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("shape", [(), 1, 4, (3,), (2, 3), (4, 4, 4)])
def test_complex_gaussian_draws_as_two_standard_normals(shape):
    for seed in range(50):
        ours, ref = stream(seed, 2), stream(seed, 2)
        for _ in range(3):  # consecutive draws stay in step
            got, want = complex_gaussian(ours, shape), _complex_gaussian_two_draws(ref, shape)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)
