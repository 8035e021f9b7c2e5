"""Tests for round-toward-zero arithmetic (repro.fp.rounding).

The bit-twiddling fast paths (decrement-correction conversion, mantissa-mask
reduction, native kernel) are all validated against
``round_toward_zero_f32_reference`` -- the original ``nextafter``-based
implementation kept as the oracle.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp import native
from repro.fp.rounding import (
    round_toward_zero_f32,
    round_toward_zero_f32_reference,
    rz_sum,
    rz_sum_squares,
    tc_accumulate_rz,
)

finite_floats = st.floats(
    min_value=-1e30, max_value=1e30, allow_nan=False, allow_infinity=False
)


class TestRoundTowardZero:
    def test_representable_values_unchanged(self):
        vals = np.array([0.0, 1.0, -1.5, 2.0**-20, 3.0], dtype=np.float32)
        out = round_toward_zero_f32(vals.astype(np.float64))
        assert np.array_equal(out, vals)

    def test_truncates_positive(self):
        # 1 + 2^-25 is between 1.0 and nextafter(1.0): RZ gives exactly 1.0.
        x = 1.0 + 2.0**-25
        assert round_toward_zero_f32(x) == np.float32(1.0)

    def test_truncates_negative_toward_zero(self):
        x = -(1.0 + 2.0**-25)
        assert round_toward_zero_f32(x) == np.float32(-1.0)

    def test_value_just_above_representable_midpoint(self):
        # Round-to-nearest would go up; RZ must not.
        one_plus = np.nextafter(np.float32(1.0), np.float32(2.0))
        mid = (1.0 + float(one_plus)) / 2.0 + 1e-12
        assert round_toward_zero_f32(mid) == np.float32(1.0)

    @given(finite_floats)
    @settings(max_examples=300, deadline=None)
    def test_never_increases_magnitude(self, x):
        out = float(round_toward_zero_f32(x))
        assert abs(out) <= abs(x) or np.isinf(out)

    @given(finite_floats)
    @settings(max_examples=300, deadline=None)
    def test_within_one_ulp(self, x):
        out = np.float32(round_toward_zero_f32(x))
        nearest = np.float64(x).astype(np.float32)
        # RZ result is either the nearest rounding or one ulp toward zero.
        assert out == nearest or out == np.nextafter(nearest, np.float32(0.0))


def _assert_bits_equal(got: np.ndarray, want: np.ndarray) -> None:
    """Bitwise float32 equality with NaN treated as equal to NaN."""
    got = np.asarray(got, np.float32).ravel()
    want = np.asarray(want, np.float32).ravel()
    assert got.shape == want.shape
    gn, wn = np.isnan(got), np.isnan(want)
    assert np.array_equal(gn, wn)
    assert np.array_equal(got.view(np.uint32)[~gn], want.view(np.uint32)[~wn])


class TestBitTwiddleAgainstOracle:
    """The fast RZ conversion must agree with the nextafter oracle bitwise."""

    #: Hand-picked adversarial float64 inputs (see ISSUE satellite): float32
    #: subnormals, negatives, exact grid points, exact rounding ties, signed
    #: zeros, inf/nan, overflow, and the normal/subnormal boundary.
    EDGE_VALUES = [
        0.0,
        -0.0,
        np.inf,
        -np.inf,
        np.nan,
        1.0,
        -1.0,
        1.0 + 2.0**-25,  # just above a float32 grid point
        -(1.0 + 2.0**-25),
        1.0 + 2.0**-24,  # exact tie between 1.0 and nextafter(1.0)
        -(1.0 + 2.0**-24),
        1.0 + 3.0 * 2.0**-24,  # exact value on the odd side of the grid
        float(np.finfo(np.float32).max),  # largest normal, exact
        float(np.finfo(np.float32).max) * (1 + 2.0**-25),  # overshoots to inf
        3.5e38,  # between f32 max and 2**128
        2.0**128,
        -(2.0**128),
        1e308,
        float(np.finfo(np.float32).tiny),  # smallest normal, exact
        float(np.finfo(np.float32).tiny) * (1 - 2.0**-25),  # straddles boundary
        float(np.finfo(np.float32).tiny) * (1 + 2.0**-30),
        -float(np.finfo(np.float32).tiny) * (1 - 2.0**-30),
        2.0**-149,  # smallest f32 subnormal, exact
        2.0**-149 * 1.5,  # tie between subnormals
        2.0**-149 * 0.5,  # tie between 0 and the smallest subnormal
        2.0**-149 * 0.4999,  # truncates to zero
        -(2.0**-149 * 0.4999),
        2.0**-140,  # subnormal region, exact
        2.0**-140 + 2.0**-165,  # subnormal region, inexact
        -(2.0**-140 + 2.0**-165),
        5e-324,  # smallest float64 subnormal
        -5e-324,
    ]

    def test_edge_values(self):
        x = np.array(self.EDGE_VALUES, dtype=np.float64)
        _assert_bits_equal(
            round_toward_zero_f32(x), round_toward_zero_f32_reference(x)
        )

    def test_scalar_inputs(self):
        for v in self.EDGE_VALUES:
            _assert_bits_equal(
                round_toward_zero_f32(v), round_toward_zero_f32_reference(v)
            )

    @given(st.floats(allow_nan=True, allow_infinity=True, width=64))
    @settings(max_examples=500, deadline=None)
    def test_agrees_everywhere(self, v):
        _assert_bits_equal(
            round_toward_zero_f32(v), round_toward_zero_f32_reference(v)
        )

    @given(st.integers(0, 2**31 - 1), st.integers(-60, 60))
    @settings(max_examples=200, deadline=None)
    def test_random_scales(self, seed, exp):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=64) * 2.0**exp
        _assert_bits_equal(
            round_toward_zero_f32(x), round_toward_zero_f32_reference(x)
        )

    def test_oracle_semantics_unchanged(self):
        """The oracle itself still never increases magnitude."""
        x = np.array(self.EDGE_VALUES, dtype=np.float64)
        out = round_toward_zero_f32_reference(x).astype(np.float64)
        finite = np.isfinite(x)
        assert np.all(np.abs(out[finite]) <= np.abs(x[finite]))


class TestRzSumFastPaths:
    """rz_sum's masked/general fast paths vs a direct oracle-based loop."""

    @staticmethod
    def _oracle_rz_sum(values, step):
        v = np.asarray(values, dtype=np.float64)
        acc = np.zeros(v.shape[:-1], dtype=np.float32)
        with np.errstate(invalid="ignore", over="ignore"):
            for start in range(0, v.shape[-1], step):
                chunk = v[..., start : start + step].sum(axis=-1)
                acc = round_toward_zero_f32_reference(
                    acc.astype(np.float64) + chunk
                )
        return acc

    @given(st.integers(0, 2**31 - 1), st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_masked_path(self, seed, step):
        rng = np.random.default_rng(seed)
        v = rng.uniform(0, 1e3, size=(8, int(rng.integers(1, 40))))
        _assert_bits_equal(rz_sum(v, step=step), self._oracle_rz_sum(v, step))

    @given(st.integers(0, 2**31 - 1), st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_signed_general_path(self, seed, step):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-40, 30)
        v = rng.normal(size=(8, int(rng.integers(1, 40)))) * scale
        _assert_bits_equal(rz_sum(v, step=step), self._oracle_rz_sum(v, step))

    def test_ragged_tail_keeps_seed_reduction_order(self):
        """A short tail chunk must sum at its true length: padding it to
        ``step`` would switch np.sum from sequential to 8-way pairwise
        association and shift inexact sums by an ulp (found by review)."""
        v = np.array(
            [[-2.14828911e01, -7.82808578e-04, 2.29153905e00,
              -2.49389428e-03, -9.05780077e-07]]
        )
        for step in (8, 16):
            _assert_bits_equal(rz_sum(v, step=step), self._oracle_rz_sum(v, step))

    @given(st.integers(0, 2**31 - 1), st.integers(8, 16))
    @settings(max_examples=100, deadline=None)
    def test_ragged_tail_random(self, seed, step):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 3 * step))  # frequently ragged
        v = rng.normal(size=(6, d)) * 10.0 ** rng.integers(-6, 6, size=(6, d))
        _assert_bits_equal(rz_sum(v, step=step), self._oracle_rz_sum(v, step))

    def test_cancellation_into_subnormals(self):
        # Forces the general path: partial sums dip below 2**-126.
        v = np.array([[1.0, -1.0 + 2.0**-140, 2.0**-140, -(2.0**-141)]])
        for step in (1, 2, 4):
            _assert_bits_equal(
                rz_sum(v, step=step), self._oracle_rz_sum(v, step)
            )

    def test_inf_nan_columns(self):
        v = np.array(
            [
                [np.inf, 1.0, 2.0, 3.0],
                [np.nan, 1.0, 2.0, 3.0],
                [np.inf, -np.inf, 1.0, 2.0],
                [1e300, 1e300, 1e300, 1e300],
            ]
        )
        _assert_bits_equal(rz_sum(v, step=4), self._oracle_rz_sum(v, 4))

    def test_empty_axis(self):
        out = rz_sum(np.empty((3, 0)), axis=-1)
        assert out.shape == (3,)
        assert np.all(out == 0.0)


class TestNativeKernel:
    """The optional C kernel must be bit-identical to the NumPy paths."""

    @pytest.mark.skipif(not native.available(), reason="no C compiler")
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_numpy_path(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        d = int(rng.integers(1, 70))
        pts = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-40, 8)
        got = native.rz_sum_squares_native(pts, 4)
        from repro.fp.fp16 import to_fp16

        q = to_fp16(pts).astype(np.float64)
        want = TestRzSumFastPaths._oracle_rz_sum(q * q, 4)
        _assert_bits_equal(got, want)

    @pytest.mark.skipif(not native.available(), reason="no C compiler")
    def test_edge_coordinates(self):
        pts = np.array(
            [
                [65504.0, 65519.0, 65520.0, 1e30],  # f16 max / overflow
                [np.inf, -np.inf, np.nan, 1.0],
                [2.0**-24, 2.0**-25, 5.96e-8, 6.2e-5],  # f16 subnormals
                [0.0, -0.0, 1e-300, 2.0**-14],
            ]
        )
        got = native.rz_sum_squares_native(pts, 4)
        from repro.fp.fp16 import to_fp16

        q = to_fp16(pts).astype(np.float64)
        want = TestRzSumFastPaths._oracle_rz_sum(q * q, 4)
        _assert_bits_equal(got, want)

    def test_compiler_flags_are_part_of_the_cache_key(self, tmp_path):
        """A flags-only change must not dlopen the object the old flags built."""
        assert "-ffp-contract=off" in native._CFLAGS
        o2, o3 = (native._command("", "", flags) for flags in (("-O2",), ("-O3",)))
        assert native._so_path(tmp_path, "src", o2) != native._so_path(tmp_path, "src", o3)
        assert native._so_path(tmp_path, "src", o3) == native._so_path(tmp_path, "src", list(o3))
        assert native._so_path(tmp_path, "src", o3) != native._so_path(tmp_path, "other", o3)

    def test_failed_build_warns_once_with_the_compiler_stderr(self, monkeypatch, tmp_path):
        cc = tmp_path / "cc"
        cc.write_text("#!/bin/sh\necho 'cc: boom' >&2\nexit 1\n")
        cc.chmod(0o755)
        monkeypatch.setenv("CC", str(cc))
        monkeypatch.setenv("REPRO_NATIVE", "1")
        monkeypatch.setattr(native, "_cache_dir", lambda: tmp_path)
        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(native, "_tried", False)
        with mock.patch.object(native._logger, "warning") as warning:
            assert not native.available() and not native.available()
            assert native.rz_sum_squares_native(np.ones((2, 4)), 4) is None
        assert warning.call_count == 1
        extra = warning.call_args.kwargs["extra"]
        assert "build failed" in extra["reason"] and "cc: boom" in extra["detail"]

    def test_disabling_by_env_does_not_warn(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(native, "_tried", False)
        with mock.patch.object(native._logger, "warning") as warning:
            assert not native.available()
        assert not warning.called

    def test_disabled_by_env(self, monkeypatch):
        # The public entry must work regardless of native availability.
        pts = np.random.default_rng(0).normal(size=(16, 32))
        expected = rz_sum_squares(pts)
        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(native, "_tried", True)
        _assert_bits_equal(rz_sum_squares(pts), expected)

    @pytest.mark.skipif(not native.available(), reason="no C compiler")
    @given(st.integers(0, 2**31 - 1), st.integers(1, 7))
    @settings(max_examples=50, deadline=None)
    def test_rz_sum_matches_oracle(self, seed, step):
        """The general C kernel on safe (non-negative) inputs."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        d = int(rng.integers(1, 70))
        v = rng.uniform(0, 1e3, size=(n, d))
        got = native.rz_sum_native(v, step)
        assert got is not None, "non-negative normal-range input must be safe"
        _assert_bits_equal(got, TestRzSumFastPaths._oracle_rz_sum(v, step))

    @pytest.mark.skipif(not native.available(), reason="no C compiler")
    def test_rz_sum_bails_outside_safe_range(self):
        """Unsafe inputs return None and the NumPy fallback serves the
        public entry with the oracle's exact bits."""
        unsafe = [
            np.random.default_rng(1).normal(size=(8, 33)),  # signed
            np.array([[1.0, -1.0 + 2.0**-140, 2.0**-140, -(2.0**-141)]]),
            np.array([[np.inf, 1.0, 2.0, 3.0]]),
            np.array([[np.nan, 1.0, 2.0, 3.0]]),
            np.array([[1e300, 1e300, 1e300, 1e300]]),
        ]
        for v in unsafe:
            assert native.rz_sum_native(v, 4) is None
            _assert_bits_equal(
                rz_sum(v, step=4), TestRzSumFastPaths._oracle_rz_sum(v, 4)
            )

    @pytest.mark.skipif(not native.available(), reason="no C compiler")
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_rz_sum_public_entry_native_vs_numpy(self, seed):
        """rz_sum must answer identically with the native kernel on and off
        -- the same contract rz_sum_squares carries."""
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 8)), int(rng.integers(1, 40)))
        v = rng.uniform(0, 1e3, size=shape) * 10.0 ** rng.integers(-3, 4)
        with_native = rz_sum(v, step=4)
        saved_lib, saved_tried = native._lib, native._tried
        native._lib, native._tried = None, True
        try:
            without_native = rz_sum(v, step=4)
        finally:
            native._lib, native._tried = saved_lib, saved_tried
        _assert_bits_equal(without_native, with_native)

    @pytest.mark.skipif(not native.available(), reason="no C compiler")
    def test_rz_sum_shapes_and_steps(self):
        """Rank handling (1-D, 3-D) and the >= 8 step guard."""
        rng = np.random.default_rng(2)
        one_d = rng.uniform(0, 10, size=17)
        _assert_bits_equal(
            rz_sum(one_d), TestRzSumFastPaths._oracle_rz_sum(one_d, 4)
        )
        three_d = rng.uniform(0, 10, size=(3, 4, 9))
        _assert_bits_equal(
            rz_sum(three_d), TestRzSumFastPaths._oracle_rz_sum(three_d, 4)
        )
        # Steps at or past the pairwise-reduction threshold stay on NumPy.
        assert native.rz_sum_native(one_d[None], 8) is None


class TestRzSum:
    def test_exact_small_integers(self):
        x = np.arange(16, dtype=np.float64)
        assert rz_sum(x) == np.float32(x.sum())

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=64,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_nonneg_rz_le_exact(self, vals):
        """For non-negative input, truncation only loses mass."""
        x = np.array(vals)
        assert float(rz_sum(x)) <= x.sum() + 1e-30

    def test_axis_handling(self):
        x = np.ones((3, 8))
        out = rz_sum(x, axis=1)
        assert out.shape == (3,)
        assert np.all(out == 8.0)

    def test_step_one_matches_sequential(self):
        x = np.array([1.0, 2.0**-24, 2.0**-24, 2.0**-24])
        # step=1: each tiny addend is truncated away against 1.0.
        assert rz_sum(x, step=1) == np.float32(1.0)


class TestTcAccumulate:
    def test_zero_accumulator(self):
        c = np.zeros((2, 2), dtype=np.float32)
        prods = np.ones((2, 2, 4), dtype=np.float32)
        out = tc_accumulate_rz(c, prods)
        assert np.all(out == 4.0)

    def test_single_rz_per_step(self):
        # c=1, products sum to 2^-25: exact sum 1+2^-25 truncates to 1.
        c = np.array([1.0], dtype=np.float32)
        prods = np.full((1, 4), 2.0**-27, dtype=np.float32)
        out = tc_accumulate_rz(c, prods)
        assert out[0] == np.float32(1.0)


class TestRzSumSquares:
    def test_rank_agnostic(self):
        """Non-2-D inputs keep working (single points, batched stacks)."""
        rng = np.random.default_rng(0)
        one = rng.normal(size=11)
        batch = rng.normal(size=(2, 5, 11))
        q1 = one.astype(np.float16).astype(np.float64)
        _assert_bits_equal(rz_sum_squares(one), rz_sum(q1 * q1, axis=-1))
        out = rz_sum_squares(batch)
        assert out.shape == (2, 5)
        _assert_bits_equal(out[1, 3], rz_sum_squares(batch[1, 3:4])[0])

    def test_matches_exact_for_integers(self):
        pts = np.array([[1.0, 2.0, 3.0, 4.0]])
        assert rz_sum_squares(pts)[0] == np.float32(30.0)

    def test_quantizes_through_fp16(self):
        # 0.1 is not exact in FP16; the norm must use the quantized value.
        pts = np.array([[0.1]])
        q = np.float16(0.1).astype(np.float64)
        assert abs(float(rz_sum_squares(pts)[0]) - q * q) < 1e-9

    @given(st.integers(min_value=1, max_value=64), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_le_exact_norm(self, d, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 10, size=(4, d))
        q = pts.astype(np.float16).astype(np.float64)
        exact = (q * q).sum(axis=1)
        assert np.all(rz_sum_squares(pts).astype(np.float64) <= exact + 1e-12)
