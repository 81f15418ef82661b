import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combdec import Mcla, critical_path_gates, mcla_add_many


def test_exhaustive_width_4():
    adder = Mcla(4)
    for cin in (0, 1):
        for a in range(16):
            for b in range(16):
                s, c = adder.add(a, b, cin)
                ref = a + b + cin
                assert s == ref & 15
                assert c == ref >> 4


def test_exhaustive_width_8_sampled_rows():
    # full exhaustion lives in the acceptance suite; spot rows here
    adder = Mcla(8)
    for a in range(0, 256, 7):
        for b in range(256):
            for cin in (0, 1):
                s, c = adder.add(a, b, cin)
                ref = a + b + cin
                assert s == ref & 255 and c == ref >> 8


@given(st.integers(0, 2**20 - 1), st.integers(0, 2**20 - 1), st.integers(0, 1))
@settings(max_examples=300, deadline=None)
def test_random_width_20(a, b, cin):
    s, c = Mcla(20).add(a, b, cin)
    ref = a + b + cin
    assert s == ref & (2**20 - 1)
    assert c == ref >> 20


def test_vector_matches_scalar():
    rng = np.random.default_rng(5)
    for width in (12, 16, 24, 28):
        n = 500
        a = rng.integers(0, 1 << width, size=n, dtype=np.int64)
        b = rng.integers(0, 1 << width, size=n, dtype=np.int64)
        cin = rng.integers(0, 2, size=n, dtype=np.int64)
        sv, cv = mcla_add_many(a, b, cin, width)
        adder = Mcla(width)
        for i in range(n):
            ss, sc = adder.add(int(a[i]), int(b[i]), int(cin[i]))
            assert ss == int(sv[i]) and sc == int(cv[i])


def test_vector_exhaustive_width_8():
    a, b = np.meshgrid(np.arange(256, dtype=np.int64), np.arange(256, dtype=np.int64))
    a, b = a.ravel(), b.ravel()
    for cin in (0, 1):
        s, c = mcla_add_many(a, b, cin, 8)
        ref = a + b + cin
        assert np.array_equal(s, ref & 255)
        assert np.array_equal(c, ref >> 8)


def test_carry_propagates_across_groups():
    adder = Mcla(16)
    s, c = adder.add(0xFFFF, 0x0001, 0)
    assert s == 0 and c == 1
    s, c = adder.add(0xFFFF, 0xFFFF, 1)
    assert s == 0xFFFF and c == 1
    s, c = adder.add(0x0FF0, 0x0010, 0)
    assert s == 0x1000 and c == 0


def test_operand_validation():
    adder = Mcla(8)
    with pytest.raises(ValueError):
        adder.add(256, 0, 0)
    with pytest.raises(ValueError):
        adder.add(0, -1, 0)
    with pytest.raises(ValueError):
        adder.add(0, 0, 2)
    with pytest.raises(ValueError):
        Mcla(10)
    with pytest.raises(ValueError):
        Mcla(0)


def test_depth_model_values():
    assert critical_path_gates(8, "mcla") == 9
    assert critical_path_gates(8, "ripple") == 17
    assert critical_path_gates(1, "ripple") == 3
    assert critical_path_gates(4, "mcla") == 7


def test_lookahead_beats_ripple_from_width_8():
    for w in range(8, 65, 4):
        assert critical_path_gates(w, "mcla") < critical_path_gates(w, "ripple")


def test_depth_validation():
    with pytest.raises(ValueError):
        critical_path_gates(10, "mcla")
    with pytest.raises(ValueError):
        critical_path_gates(0, "ripple")
    with pytest.raises(ValueError):
        critical_path_gates(8, "carry-save")
