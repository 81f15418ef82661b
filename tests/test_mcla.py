import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combdec import (
    CicFilter,
    FilterConfig,
    FixedSequence,
    Mcla,
    cic_truncation_plan,
    critical_path_gates,
    mcla_add_many,
)
from combdec import mcla
from combdec.fixedpoint import wrap
from combdec.mcla import GateAdder, WrapAdder, adder_width


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


# gate-level integrators ---------------------------------------------------

# (register width, array dtype): int64 while the adder width is at most 62
# bits, Python-int objects above, as the filters choose them
ACC_WIDTHS = [(5, np.int64), (25, np.int64), (60, np.int64), (62, object),
              (64, object), (72, object)]


def sequential_chain(acc, xs, width):
    """Reference integrator: one Mcla.add per step, each sum fed back."""
    adder = Mcla(adder_width(width))
    mask = (1 << adder.width) - 1
    out = []
    for v in xs:
        s, _ = adder.add(acc & mask, int(v) & mask)
        acc = wrap(s, width)
        out.append(acc)
    return out


def signed_values(rng, n, width):
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    return [rng.choice((lo, hi, rng.randint(lo, hi))) for _ in range(n)]


def count_scalar_adds(monkeypatch):
    calls = []
    scalar = Mcla.add

    def counted(self, a, b, carry_in=0):
        calls.append((a, b))
        return scalar(self, a, b, carry_in)

    monkeypatch.setattr(Mcla, "add", counted)
    return calls


def inject_fault(monkeypatch, fault):
    """Apply fault(a, b, carry_in, sum, width) to both adder models alike."""
    scalar, vector = Mcla.add, mcla.mcla_add_many

    def add(self, a, b, carry_in=0):
        s, c = scalar(self, a, b, carry_in)
        lane = (np.array(v, dtype=object) for v in (a, b, carry_in, s))
        return int(fault(*lane, self.width)), c

    def add_many(a, b, carry_in, width):
        s, c = vector(a, b, carry_in, width)
        return fault(np.asarray(a), np.asarray(b), carry_in, s, width), c

    monkeypatch.setattr(Mcla, "add", add)
    monkeypatch.setattr(mcla, "mcla_add_many", add_many)


def flip_lsb_on_all_ones(a, b, carry_in, s, width):
    """Sum bit 0 inverted whenever operand b is all ones (the value -1)."""
    return np.where(b == (1 << width) - 1, s ^ 1, s)


def lost_group_carry(a, b, carry_in, s, width):
    """The carry out of the low 4-bit group never reaches the next group."""
    carry = ((a & 15) + (b & 15) + carry_in) >> 4
    return np.where(carry == 1, (s - 16) & ((1 << width) - 1), s)


@pytest.mark.parametrize("width, dtype", ACC_WIDTHS)
def test_gate_accumulate_equals_chain_without_scalar_adds(monkeypatch, width, dtype):
    rng = random.Random(width)
    for n in (0, 1, 2, 300):
        acc = signed_values(rng, 1, width)[0]
        xs = signed_values(rng, n, width)
        want = sequential_chain(acc, xs, width)
        calls = count_scalar_adds(monkeypatch)
        got = GateAdder().accumulate(acc, np.array(xs, dtype=dtype), width)
        monkeypatch.undo()
        assert calls == []
        assert got.dtype == dtype
        assert got.tolist() == want


@pytest.mark.parametrize("plan_widths", [None, (25, 22, 20, 18, 16)])
def test_gate_cic_process_makes_no_scalar_adds(monkeypatch, plan_widths):
    cfg = FilterConfig(5, 1, 16, 5)
    plan = plan_widths and cic_truncation_plan(cfg, plan_widths)
    xs = FixedSequence(signed_values(random.Random(3), 500, 5), 5)
    want = CicFilter(cfg, plan).process(xs)
    calls = count_scalar_adds(monkeypatch)
    assert CicFilter(cfg, plan, "gate-model").process(xs) == want
    assert calls == []


@pytest.mark.parametrize("width, dtype", ACC_WIDTHS)
@pytest.mark.parametrize("where", ["empty", "first", "middle", "last"])
def test_faulty_adder_batch_equals_chain_from_divergence(monkeypatch, width, dtype, where):
    rng = random.Random(width)
    n = 0 if where == "empty" else 40
    acc = 7
    # no -1 except the one that trips the fault
    xs = [v if v != -1 else 0 for v in signed_values(rng, n, width)]
    t = {"empty": 0, "first": 0, "middle": n // 2, "last": n - 1}[where]
    if n:
        xs[t] = -1
    inject_fault(monkeypatch, flip_lsb_on_all_ones)
    want = sequential_chain(acc, xs, width)
    calls = count_scalar_adds(monkeypatch)
    got = GateAdder().accumulate(acc, np.array(xs, dtype=dtype), width)
    assert got.dtype == dtype
    assert got.tolist() == want
    # the scalar chain runs only from the first step that disagrees
    assert len(calls) == n - t
    native = WrapAdder().accumulate(acc, np.array(xs, dtype=dtype), width).tolist()
    assert got.tolist()[:t] == native[:t]
    if n:
        assert got.tolist()[t:] != native[t:]


@pytest.mark.parametrize("width, dtype", ACC_WIDTHS)
def test_faulty_adder_propagates_like_the_chain(monkeypatch, width, dtype):
    inject_fault(monkeypatch, lost_group_carry)
    rng = random.Random(width)
    for _ in range(10):
        acc = signed_values(rng, 1, width)[0]
        xs = signed_values(rng, rng.randint(20, 60), width)
        want = sequential_chain(acc, xs, width)
        got = GateAdder().accumulate(acc, np.array(xs, dtype=dtype), width).tolist()
        assert got == want
        assert got != WrapAdder().accumulate(acc, np.array(xs, dtype=dtype), width).tolist()
