"""Ring arithmetic: hand-evaluated examples, independent oracles, exactness properties."""

from fractions import Fraction

import numpy as np
import pytest
from conftest import slow_matmul
from hypothesis import given, settings
from hypothesis import strategies as st

from remo.errors import DecodeError, LengthMismatch, RangeOverflow, RemoError, ShapeMismatch
from remo.model import ModelConfig, init_weights
from remo.ring import (
    _BLAS_MIN_MACS,
    _BLAS_MIN_ROWS,
    _EINSUM_MIN_MACS,
    _LIMB_BITS,
    _blas_operand,
    RING_BITS,
    QuantParams,
    RingMatrix,
    column_major,
    decode_matrix,
    dequantize,
    encode_matrix,
    quantize,
    rescale,
    ring_add,
    ring_kernel,
    ring_matmul,
    ring_solve,
    ring_sub,
    zeros,
)

P64 = QuantParams()
P2 = QuantParams(f=2)
P4 = QuantParams(f=4)
MOD = 1 << 64


# --- independent oracles ---------------------------------------------------


def round_half_even_div(value: int, shift: int) -> int:
    """Round-half-even of value / 2^shift via exact rationals."""
    q = Fraction(value, 1 << shift)
    floor = q.numerator // q.denominator
    frac = q - floor
    if frac > Fraction(1, 2):
        return floor + 1
    if frac < Fraction(1, 2):
        return floor
    return floor if floor % 2 == 0 else floor + 1


def signed_of(v: int) -> int:
    return v - MOD if v >= 1 << 63 else v


# --- quantize / dequantize ---------------------------------------------------


def test_quantize_zero():
    assert quantize([[0.0]], P64).to_ints() == [[0]]


def test_quantize_one_is_scale():
    assert quantize([[1.0]], P64).to_ints() == [[65536]]


def test_quantize_halves_wrap_mod_2_64():
    # hand: round(0.5 * 4) = 2, round(-0.5 * 4) = -2 = 2^64 - 2
    assert quantize([[0.5, -0.5]], P2).to_ints() == [[2, MOD - 2]]


def test_quantize_overflow():
    for bad in (P2.max_abs, -P2.max_abs, np.nan, np.inf, -np.inf):
        with pytest.raises(RangeOverflow):
            quantize([[0.0, bad]], P2)


def test_quantize_deterministic():
    x = np.linspace(-3.0, 3.0, 24).reshape(4, 6)
    assert quantize(x, P64) == quantize(x, P64)


def test_dequantize_trivials():
    assert dequantize(RingMatrix.from_ints([[0]], P64)).tolist() == [[0.0]]
    assert dequantize(RingMatrix.from_ints([[65536]], P64)).tolist() == [[1.0]]


def test_dequantize_twos_complement():
    v = (1 << 64) - (1 << 16)
    assert dequantize(RingMatrix.from_ints([[v]], P64)).tolist() == [[-1.0]]


@given(st.integers(min_value=-(2**40), max_value=2**40))
@settings(max_examples=200, deadline=None)
def test_quantize_dequantize_round_trip(v):
    # every float of the form v / 2^16 is exactly representable
    m = RingMatrix.from_ints([[v]], P64)
    assert quantize(dequantize(m), P64) == m


@given(st.integers(min_value=-(2**7) + 1, max_value=2**7 - 1))
@settings(max_examples=100, deadline=None)
def test_round_trip_small_ring(v):
    m = RingMatrix.from_ints([[v]], P2)
    assert quantize(dequantize(m), P2) == m


# --- add / sub ----------------------------------------------------------------


def test_add_identity():
    a = RingMatrix.from_ints([[7, 11], [13, 17]], P64)
    assert ring_add(a, zeros(2, 2, P64)) == a


def test_add_wraparound():
    a = RingMatrix.from_ints([[(1 << 64) - 1]], P64)
    b = RingMatrix.from_ints([[1]], P64)
    assert ring_add(a, b).to_ints() == [[0]]


def test_add_hand_values():
    a = RingMatrix.from_ints([[3, 5]], P4)
    b = RingMatrix.from_ints([[10, 20]], P4)
    assert ring_add(a, b).to_ints() == [[13, 25]]


def test_sub_self_is_zero():
    a = RingMatrix.from_ints([[123, 456]], P64)
    assert ring_sub(a, a) == zeros(1, 2, P64)


def test_sub_wraparound():
    a = RingMatrix.from_ints([[0]], P64)
    b = RingMatrix.from_ints([[1]], P64)
    assert ring_sub(a, b).to_ints() == [[(1 << 64) - 1]]


def test_sub_inverts_add_property():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        e = RingMatrix.from_ints(rng.integers(0, 2**63, (2, 3)).tolist(), P64)
        m = RingMatrix.from_ints(rng.integers(0, 2**63, (2, 3)).tolist(), P64)
        assert ring_sub(ring_add(e, m), m) == e


def test_shape_mismatch():
    a = RingMatrix.from_ints([[1, 2]], P64)
    b = RingMatrix.from_ints([[1]], P64)
    with pytest.raises(ShapeMismatch):
        ring_add(a, b)
    with pytest.raises(ShapeMismatch):
        ring_sub(a, b)


def test_params_mismatch_rejected():
    a = RingMatrix.from_ints([[1]], P64)
    b = RingMatrix.from_ints([[1]], P2)
    with pytest.raises(ShapeMismatch):
        ring_add(a, b)


# --- matmul ---------------------------------------------------------------------


def test_matmul_integer_identity():
    a = RingMatrix.from_ints([[5, 6], [7, 8]], P64)
    eye = RingMatrix.from_ints([[1, 0], [0, 1]], P64)
    assert ring_matmul(a, eye) == a


def test_matmul_hand_value():
    a = RingMatrix.from_ints([[1, 2]], P64)
    b = RingMatrix.from_ints([[3], [4]], P64)
    assert ring_matmul(a, b).to_ints() == slow_matmul([[1, 2]], [[3], [4]]) == [[11]]


def test_matmul_matches_slow_oracle():
    rng = np.random.default_rng(1)
    for p in (P2, P4, P64):
        a_ints = [[int(v) for v in row] for row in rng.integers(0, 1 << 62, (3, 4))]
        b_ints = [[int(v) for v in row] for row in rng.integers(0, 1 << 62, (4, 2))]
        got = ring_matmul(RingMatrix.from_ints(a_ints, p), RingMatrix.from_ints(b_ints, p))
        assert got.to_ints() == slow_matmul(a_ints, b_ints)


def test_matmul_distributivity_1000_trials():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        e = RingMatrix.from_ints(rng.integers(0, 2**63, (4, 4)).tolist(), P64)
        m = RingMatrix.from_ints(rng.integers(0, 2**63, (4, 4)).tolist(), P64)
        w = RingMatrix.from_ints(rng.integers(0, 2**63, (4, 4)).tolist(), P64)
        left = ring_matmul(ring_add(e, m), w)
        right = ring_add(ring_matmul(e, w), ring_matmul(m, w))
        assert left == right


def test_matmul_inner_dim_mismatch():
    a = RingMatrix.from_ints([[1, 2]], P64)
    with pytest.raises(ShapeMismatch):
        ring_matmul(a, a)


@given(
    st.lists(st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=2), min_size=2, max_size=2),
    st.lists(st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=2), min_size=2, max_size=2),
)
@settings(max_examples=100, deadline=None)
def test_matmul_oracle_property(a_ints, b_ints):
    got = ring_matmul(RingMatrix.from_ints(a_ints, P64), RingMatrix.from_ints(b_ints, P64))
    assert got.to_ints() == slow_matmul(a_ints, b_ints)


def full_range(rng: np.random.Generator, shape, fill: str) -> np.ndarray:
    """Ring elements: uniform over [0, 2^64), or all 2^64 - 1."""
    top = np.uint64(MOD - 1)
    if fill == "max":
        return np.full(shape, top, dtype=np.uint64)
    return rng.integers(0, top, size=shape, dtype=np.uint64, endpoint=True)


def assert_layout_invariant(a: RingMatrix, b: RingMatrix, got: RingMatrix) -> None:
    """a @ b with b stored column-major is `got`, the row-major b's product, bit for bit."""
    twin = column_major(b)
    assert twin.data.flags.f_contiguous and twin == b
    out = ring_matmul(a, twin)
    assert out.data.flags.c_contiguous and np.array_equal(out.data, got.data)


# Shapes on each side of ring_matmul's einsum crossover.
_SMALL_DIMS = dict(n=st.integers(1, 4), inner=st.integers(1, 32), cols=st.integers(1, 32))
_LARGE_DIMS = dict(n=st.integers(1, 8), inner=st.integers(64, 96), cols=st.integers(128, 160))


@pytest.mark.parametrize("large", [False, True], ids=["below-crossover", "above-crossover"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_matmul_kernels_match_slow_oracle(large, data):
    dims = _LARGE_DIMS if large else _SMALL_DIMS
    n, inner, cols = (data.draw(dims[name], label=name) for name in ("n", "inner", "cols"))
    assert (n * inner * cols >= _EINSUM_MIN_MACS) == large
    assert n * inner * cols < _BLAS_MIN_MACS  # the integer kernels, whatever b holds
    fill = data.draw(st.sampled_from(["uniform", "max"]), label="fill")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    a = RingMatrix(full_range(rng, (n, inner), fill), P64)
    b = RingMatrix(full_range(rng, (inner, cols), fill), P64)
    got = ring_matmul(a, b)
    assert got.to_ints() == slow_matmul(a.to_ints(), b.to_ints())
    assert_layout_invariant(a, b, got)


@pytest.mark.parametrize("n,inner,cols", [(1, 512, 1024), (16, 256, 256)])
def test_matmul_wide_shapes_match_numpy_matmul(n, inner, cols):
    rng = np.random.default_rng(n)
    a = RingMatrix(full_range(rng, (n, inner), "uniform"), P64)
    b = RingMatrix(full_range(rng, (inner, cols), "uniform"), P64)
    assert np.array_equal(ring_matmul(a, b).data, a.data @ b.data)


def blas_limit(inner: int) -> int:
    """Largest max|signed(b)| the float64 kernel takes at this inner dim."""
    return ((1 << 53) - 1) // (((1 << _LIMB_BITS) - 1) * inner)


def signed_right_operand(rng, shape, fill: str) -> np.ndarray:
    """Ring elements whose signed values sit at the float64 bound.

    "at": uniform in [-lim, lim] with both ends present, lim the bound;
    "past": one element one beyond the bound; "min": one element -2^63;
    "max": all 2^64 - 1 (-1).
    """
    if fill == "max":
        return full_range(rng, shape, "max")
    limit = blas_limit(shape[0])
    s = rng.integers(-limit, limit, size=shape, dtype=np.int64, endpoint=True)
    s.flat[0], s.flat[-1] = limit, -limit
    spot = tuple(int(rng.integers(0, n)) for n in shape)
    if fill == "past":
        s[spot] = limit + 1
    if fill == "min":
        s[spot] = -(1 << 63)
    return s.view(np.uint64)


# Shapes on each side of the float64 kernel's crossover: too few rows, too
# few multiply-adds, or both floors met (cols is fitted to the MAC floor).
_BLAS_SIDES = {
    "few-rows": dict(n=st.integers(1, _BLAS_MIN_ROWS - 1), inner=st.integers(64, 96)),
    "few-macs": dict(n=st.integers(_BLAS_MIN_ROWS, 12), inner=st.integers(16, 32)),
    "above": dict(n=st.integers(_BLAS_MIN_ROWS, 12), inner=st.integers(64, 96)),
}


@pytest.mark.parametrize("side", list(_BLAS_SIDES))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_blas_kernel_matches_slow_oracle(side, data):
    dims = _BLAS_SIDES[side]
    n, inner = data.draw(dims["n"], label="n"), data.draw(dims["inner"], label="inner")
    floor = -(-_BLAS_MIN_MACS // (_BLAS_MIN_ROWS * inner))
    cols_range = st.integers(64, 128) if side == "few-macs" else st.integers(floor, floor + 16)
    cols = data.draw(cols_range, label="cols")
    assert (n >= _BLAS_MIN_ROWS and n * inner * cols >= _BLAS_MIN_MACS) == (side == "above")
    b_fill = data.draw(st.sampled_from(["at", "past", "min", "max", "uniform"]), label="b")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    a_fill = data.draw(st.sampled_from(["uniform", "max"]), label="a")
    a = RingMatrix(full_range(rng, (n, inner), a_fill), P64)
    if b_fill == "uniform":
        b = RingMatrix(full_range(rng, (inner, cols), "uniform"), P64)
    else:
        b = RingMatrix(signed_right_operand(rng, (inner, cols), b_fill), P64)
    b_ints = b.to_ints()
    fits = max(abs(signed_of(v)) for row in b_ints for v in row) <= blas_limit(inner)
    assert (_blas_operand(b) is not None) == fits
    assert (_blas_operand(column_major(b)) is not None) == fits
    if b_fill in ("at", "max"):
        assert fits
    if b_fill == "past":
        assert not fits
    got = ring_matmul(a, b)
    assert got.to_ints() == slow_matmul(a.to_ints(), b_ints)
    assert_layout_invariant(a, b, got)


def test_blas_kernel_on_wide_setup_pools():
    # the provider's set-up products at the wide config: an m x d uniform
    # base (m = d/2) against each real weight matrix
    weights = init_weights(ModelConfig(vocab=256, d=256, layers=1, heads=8, d_ff=1024), seed=1234)
    rng = np.random.default_rng(6)
    for op_id, w in weights.provider_view().items():
        base = RingMatrix(full_range(rng, (w.rows // 2, w.rows), "uniform"), P64)
        assert base.rows >= _BLAS_MIN_ROWS and base.rows * w.rows * w.cols >= _BLAS_MIN_MACS
        assert _blas_operand(w) is not None, op_id
        assert np.array_equal(ring_matmul(base, w).data, base.data @ w.data), op_id


# --- rescale ----------------------------------------------------------------------


def test_rescale_zero():
    assert rescale(zeros(1, 1, P2)).to_ints() == [[0]]


def test_rescale_exact_shift():
    # 16 at scale 2^(2f)=16 encodes 1.0; at scale 4 that is 4
    assert rescale(RingMatrix.from_ints([[16]], P2)).to_ints() == [[4]]


def test_rescale_half_even():
    # 6/4 = 1.5 rounds to the even neighbour 2
    assert rescale(RingMatrix.from_ints([[6]], P2)).to_ints() == [[2]]


def test_rescale_matches_rational_oracle():
    rng = np.random.default_rng(3)
    for p in (P2, P4, P64):
        vals = [int(v) for v in rng.integers(0, 2**63, 200)]
        vals += [0, 1, MOD - 1, 1 << 63]
        got = rescale(RingMatrix.from_ints([vals], p)).to_ints()[0]
        want = [round_half_even_div(signed_of(v), p.f) % MOD for v in vals]
        assert got == want


def rescale_matches_rational_oracle(vals: list[int], f: int) -> None:
    p = QuantParams(f=f)
    got = rescale(RingMatrix(np.array([vals], dtype=np.uint64), p)).to_ints()[0]
    want = [round_half_even_div(signed_of(v), f) % MOD for v in vals]
    assert got == want, f


def test_rescale_half_steps_match_rational_oracle_at_every_f():
    top = 1 << 63
    for f in range(1, 64):
        step, half = 1 << f, 1 << (f - 1)
        vals = [0, 1, top - 1, top, top + 1, MOD - 1]
        # at and next to the half step above floors q of both signs and parities,
        # at both ends of the signed range
        low, high = -top >> f, (top - 1) >> f
        for q in (low, low + 1, -2, -1, 0, 1, 2, high - 1, high):
            vals += [(q * step + half + e) % MOD for e in (-1, 0, 1)]
        rescale_matches_rational_oracle(vals, f)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_rescale_matches_rational_oracle_at_any_k_and_f(data):
    f = data.draw(st.integers(1, 63), label="f")
    vals = data.draw(st.lists(st.integers(0, MOD - 1), min_size=1, max_size=32), label="vals")
    rescale_matches_rational_oracle(vals, f)


# --- exact recovery identity (the whole point) --------------------------------------


def test_exact_recovery_identity():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n, m, d, dout = rng.integers(1, 6, 4)
        e = RingMatrix.from_ints(rng.integers(0, 2**63, (n, d)).tolist(), P64)
        mask = RingMatrix.from_ints(rng.integers(0, 2**63, (n, d)).tolist(), P64)
        w = RingMatrix.from_ints(rng.integers(0, 2**63, (d, dout)).tolist(), P64)
        got = ring_sub(ring_matmul(ring_add(e, mask), w), ring_matmul(mask, w))
        assert got == ring_matmul(e, w)


# --- the odd-pivot eliminator ----------------------------------------------------------


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_eliminator_kernel_and_solution_hold_mod_2k(data):
    d = data.draw(st.integers(1, 12), label="d")
    m = data.draw(st.integers(1, d), label="m")
    t = data.draw(st.integers(1, 4), label="d_out")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

    def draw(shape):
        return rng.integers(0, MOD - 1, size=shape, dtype=np.uint64, endpoint=True)

    # M = L @ [I | R] with L lower triangular and odd on the diagonal:
    # every row has a unit pivot
    lower = np.tril(draw((m, m)))
    lower[np.diag_indices(m)] |= np.uint64(1)
    ident_r = np.hstack([np.eye(m, dtype=np.uint64), draw((m, d - m))])
    mat = RingMatrix(lower @ ident_r, P64)
    rank, n = ring_kernel(mat)
    assert rank == m and n.shape == (d, d - m)
    assert slow_matmul(mat.to_ints(), n.to_ints()) == [[0] * (d - m) for _ in range(m)]
    assert n.to_ints()[m:] == np.eye(d - m, dtype=int).tolist()

    b = RingMatrix(draw((m, t)), P64)
    x0, n_solve = ring_solve(mat, b)
    assert n_solve == n
    assert slow_matmul(mat.to_ints(), x0.to_ints()) == b.to_ints()
    # the enclave holds its bases and pools column-major
    assert ring_kernel(column_major(mat)) == (rank, n)
    assert ring_solve(column_major(mat), column_major(b)) == (x0, n_solve)
    assert ring_solve(column_major(mat), b) == (x0, n_solve)

    # one more row, the sum of the others: its right-hand side decides consistency
    delta = data.draw(st.integers(0, MOD - 1), label="delta")
    stacked = RingMatrix(np.vstack([mat.data, mat.data.sum(axis=0)]), P64)
    extra = b.data.sum(axis=0) + np.uint64(delta)
    solved = ring_solve(stacked, RingMatrix(np.vstack([b.data, extra]), P64))
    if delta == 0:
        assert solved is not None
        assert slow_matmul(mat.to_ints(), solved[0].to_ints()) == b.to_ints()
    else:
        assert solved is None

    # doubled, every entry is even and some is not zero: no odd pivot anywhere
    doubled = RingMatrix(mat.data << np.uint64(1), P64)
    with pytest.raises(RemoError):
        ring_kernel(doubled)
    with pytest.raises(RemoError):
        ring_solve(doubled, b)


# --- layout ---------------------------------------------------------------------------


def test_ring_matrix_keeps_column_major_data():
    rng = np.random.default_rng(8)
    rows = rng.integers(0, 2**64, (5, 7), dtype=np.uint64, endpoint=False)
    cols = np.asfortranarray(rows)
    m, twin = RingMatrix(cols, P64), RingMatrix(rows, P64)
    assert m.data.flags.f_contiguous and np.shares_memory(m.data, cols)
    assert not m.data.flags.writeable
    assert np.shares_memory(column_major(m).data, cols)
    assert m == twin and hash(m) == hash(twin) and m.to_ints() == twin.to_ints()
    assert encode_matrix(m) == encode_matrix(twin)
    assert decode_matrix(encode_matrix(m))[0] == m
    # a column-major left operand (privacy checks multiply by the enclave's base)
    wide = RingMatrix(rng.integers(0, 2**64, (7, 300), dtype=np.uint64, endpoint=False), P64)
    assert m.rows * m.cols * wide.cols >= _EINSUM_MIN_MACS
    product = ring_matmul(m, column_major(wide))
    assert product.data.flags.c_contiguous and product == ring_matmul(twin, wide)

    strided = RingMatrix(rows[:, ::2], P64)
    assert strided.data.flags.c_contiguous and strided.to_ints() == rows[:, ::2].tolist()


# --- binary encoding ------------------------------------------------------------------


def test_codec_round_trip():
    m = RingMatrix.from_ints([[1, 2, 3], [4, 5, (1 << 64) - 1]], P64)
    decoded, offset = decode_matrix(encode_matrix(m))
    assert decoded == m
    assert offset == len(encode_matrix(m))


def test_codec_layout():
    m = RingMatrix.from_ints([[258]], P4)
    raw = encode_matrix(m)
    assert raw[:4] == b"RMX1"
    assert raw[4:8] == (1).to_bytes(4, "little")
    assert raw[8:12] == (1).to_bytes(4, "little")
    assert raw[12] == RING_BITS == 64 and raw[13] == 4
    assert raw[14:22] == (258).to_bytes(8, "little")


def test_codec_truncated():
    raw = encode_matrix(RingMatrix.from_ints([[1, 2]], P64))
    with pytest.raises(LengthMismatch):
        decode_matrix(raw[:-3])


def test_codec_bad_magic():
    raw = bytearray(encode_matrix(RingMatrix.from_ints([[1]], P64)))
    raw[0] = ord(b"X")
    with pytest.raises(DecodeError):
        decode_matrix(bytes(raw))


@given(
    st.integers(2, 5),
    st.integers(2, 5),
    st.integers(0, 2**64 - 1),
)
@settings(max_examples=50, deadline=None)
def test_codec_round_trip_property(rows, cols, fill):
    rng = np.random.default_rng(fill % 2**32)
    vals = rng.integers(0, 2**63, (rows, cols)).tolist()
    vals[0][0] = fill
    m = RingMatrix.from_ints(vals, P64)
    decoded, _ = decode_matrix(encode_matrix(m))
    assert decoded == m
