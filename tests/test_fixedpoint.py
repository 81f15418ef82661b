"""FixedSequence: one check at construction, a read-only array behind it."""

import numpy as np
import pytest

from combdec.fixedpoint import FixedSequence, array_dtype


@pytest.mark.parametrize("width", [5, 62, 63, 64, 72])
def test_array_dtype_follows_width(width):
    seq = FixedSequence([1, -2, 3], width)
    assert seq.array.dtype == array_dtype(width)
    assert seq.samples == (1, -2, 3)


@pytest.mark.parametrize("width", [8, 72])
def test_samples_is_a_tuple_of_ints(width):
    seq = FixedSequence(np.array([4, -5, 6]), width)
    assert isinstance(seq.samples, tuple)
    assert all(type(s) is int for s in seq.samples)
    assert all(type(s) is int for s in seq)
    assert type(seq[1]) is int and seq[1] == -5
    assert seq[1:] == (-5, 6)
    assert len(seq) == 3


@pytest.mark.parametrize("width", [8, 72])
def test_array_is_read_only(width):
    seq = FixedSequence([1, 2, 3], width)
    assert not seq.array.flags.writeable
    with pytest.raises(ValueError):
        seq.array[0] = 5


@pytest.mark.parametrize("width", [8, 72])
def test_caller_mutation_does_not_reach_the_sequence(width):
    values = [1, 2, 3]
    array = np.array(values)
    from_list = FixedSequence(values, width)
    from_array = FixedSequence(array, width)
    values[0] = 9
    array[0] = 9
    assert from_list.samples == (1, 2, 3)
    assert from_array.samples == (1, 2, 3)
    assert array.flags.writeable


def test_range_error_names_index_and_value():
    with pytest.raises(ValueError, match="sample 2 = 8 does not fit in 4 signed bits"):
        FixedSequence([0, -8, 8], 4)
    with pytest.raises(ValueError, match="sample 1 = -9 does not fit"):
        FixedSequence(np.array([7, -9], dtype=np.int8), 4)
    with pytest.raises(ValueError, match=f"sample 0 = {1 << 63} does not fit"):
        FixedSequence([1 << 63], 64)
    with pytest.raises(ValueError, match="width must be >= 1"):
        FixedSequence([0], 0)


@pytest.mark.parametrize("samples", [[1.7, -2.9], np.array([1.7, -2.9]), [1, 2.5]])
def test_fractional_samples_are_rejected(samples):
    with pytest.raises(ValueError, match="is not an integer"):
        FixedSequence(samples, 4)


def test_integral_floats_and_wide_ints_are_exact():
    assert FixedSequence([1.0, -2.0], 4).samples == (1, -2)
    assert FixedSequence(np.array([3.0]), 72).samples == (3,)
    # numpy would read this list as float64 and round the large value
    big = (1 << 64) - 1
    assert FixedSequence([-1, big], 66).samples == (-1, big)


def test_equality_and_hash():
    a = FixedSequence([1, 2], 8)
    assert a == FixedSequence(np.array([1, 2], dtype=np.int16), 8)
    assert a != FixedSequence([1, 2], 9)
    assert a != FixedSequence([1, 3], 8)
    assert FixedSequence([1, 2], 70) == FixedSequence((1, 2), 70)
    assert hash(a) == hash(FixedSequence((1, 2), 8))
    assert FixedSequence((), 8) == FixedSequence.zeros(0, 8)
