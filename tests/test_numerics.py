import ast
import copy
import hashlib
import os
import re
import signal
import sys
import threading
import time
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import FFT_ENTRY_POINTS

from fftmix import numerics as nx
from fftmix.numerics import GradTape, Tensor, circular_convolve, grad_check


def circ_direct_1d(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    y = np.zeros_like(x)
    for s in range(len(x)):
        y += x[s] * np.roll(h, s)
    return y


def circ_direct_2d(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    ny, nxx = x.shape
    y = np.zeros_like(x)
    for sy in range(ny):
        for sx in range(nxx):
            y += x[sy, sx] * np.roll(np.roll(h, sy, axis=0), sx, axis=1)
    return y


class TestCircularConvolve:
    def test_impulse_reproduces_kernel(self):
        y = circular_convolve(Tensor([1.0, 0, 0, 0]), Tensor([1.0, 2, 3, 4]), dims=[0])
        assert np.allclose(y.data, [1, 2, 3, 4], atol=1e-13)

    def test_all_ones(self):
        y = circular_convolve(Tensor([1.0, 1, 1, 1]), Tensor([1.0, 1, 1, 1]), dims=[0])
        assert np.allclose(y.data, 4.0, atol=1e-13)

    def test_random_1d_vs_direct(self, rng):
        x, h = rng.normal(size=64), rng.normal(size=64)
        y = circular_convolve(Tensor(x), Tensor(h), dims=[0]).data
        assert np.abs(y - circ_direct_1d(x, h)).max() < 1e-10

    def test_random_2d_vs_direct(self, rng):
        x, h = rng.normal(size=(9, 13)), rng.normal(size=(9, 13))
        y = circular_convolve(Tensor(x), Tensor(h), dims=[0, 1]).data
        assert np.abs(y - circ_direct_2d(x, h)).max() < 1e-10

    @pytest.mark.parametrize("n", [111, 6271])
    def test_paper_lengths_vs_direct(self, rng, n):
        # Odd lengths used by the stage kernels (6271 is prime).
        x, h = rng.normal(size=n), rng.normal(size=n)
        y = circular_convolve(Tensor(x), Tensor(h), dims=[0]).data
        assert np.abs(y - circ_direct_1d(x, h)).max() < 1e-9

    def test_commutative(self, rng):
        x, h = rng.normal(size=33), rng.normal(size=33)
        a = circular_convolve(Tensor(x), Tensor(h), dims=[0]).data
        b = circular_convolve(Tensor(h), Tensor(x), dims=[0]).data
        assert np.abs(a - b).max() < 1e-12

    def test_linear(self, rng):
        x, z, h = rng.normal(size=17), rng.normal(size=17), rng.normal(size=17)
        a, b = 1.7, -0.3
        lhs = circular_convolve(Tensor(a * x + b * z), Tensor(h), dims=[0]).data
        rhs = a * circular_convolve(Tensor(x), Tensor(h), dims=[0]).data
        rhs = rhs + b * circular_convolve(Tensor(z), Tensor(h), dims=[0]).data
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_batch_broadcasting(self, rng):
        x = rng.normal(size=(5, 12, 3))
        h = rng.normal(size=(12, 3))
        y = circular_convolve(Tensor(x), Tensor(h), dims=[-2]).data
        for b in range(5):
            for c in range(3):
                ref = circ_direct_1d(x[b, :, c], h[:, c])
                assert np.abs(y[b, :, c] - ref).max() < 1e-10

    def test_length_mismatch_error(self, rng):
        with pytest.raises(ValueError):
            circular_convolve(Tensor(rng.normal(size=8)), Tensor(rng.normal(size=7)), dims=[0])


    def test_kernel_spectrum_in_place_of_kernel(self, rng):
        x, h = rng.normal(size=(2, 9, 13, 3)), rng.normal(size=(9, 13, 3))
        ref = circular_convolve(Tensor(x), Tensor(h), dims=[-3, -2]).data
        spectrum = nx.kernel_spectrum(Tensor(h), [-3, -2])
        assert spectrum.data.shape == (9, 7, 3) and spectrum.shape == (9, 13, 3)
        y = circular_convolve(Tensor(x), spectrum, dims=[-3, -2]).data
        assert np.array_equal(y, ref)
        # A 12-long x (12 // 2 + 1 == 13 // 2 + 1) is zero-padded to the
        # spectrum's true length 13; the output is the trailing 12 columns.
        short = circular_convolve(Tensor(x[:, :, :12]), spectrum, dims=[-3, -2]).data
        assert short.shape == (2, 9, 12, 3)
        for b in range(2):
            for c in range(3):
                padded = np.pad(x[b, :, :12, c], [(0, 0), (0, 1)])
                assert np.abs(short[b, :, :, c] - circ_direct_2d(padded, h[:, :, c])[:, 1:]).max() < 1e-10
        with pytest.raises(ValueError, match="does not match h"):
            circular_convolve(Tensor(rng.normal(size=(2, 9, 14, 3))), spectrum, dims=[-3, -2])
        with pytest.raises(ValueError, match="taken over axes"):
            circular_convolve(Tensor(x), spectrum, dims=[-2])
        # On a tape the spectrum is a constant: one node, x its only input.
        g = rng.normal(size=x.shape)
        xt = Tensor(x)
        with GradTape([xt]) as tape:
            y = circular_convolve(xt, spectrum, dims=[-3, -2])
        (node,) = tape.nodes
        assert node.inputs == (xt.key,)
        (gx,) = tape.gradient(y, [xt], upstream=g)
        xt, ht = Tensor(x), Tensor(h)
        with GradTape([xt, ht]) as tape:
            y = circular_convolve(xt, ht, dims=[-3, -2])
        ref_gx, _ = tape.gradient(y, [xt, ht], upstream=g)
        assert np.abs(gx.data - ref_gx.data).max() < 1e-12


def _kernel_or_spectrum(h: np.ndarray, dims, spectral: bool):
    return nx.kernel_spectrum(Tensor(h), dims) if spectral else Tensor(h)


class TestUnpaddedInput:
    """``circular_convolve`` of an ``x`` shorter than ``h``: the transform
    zero-pads x at its end to h's length M and the output is the last L of
    the M outputs, whether h is a kernel or its spectrum."""

    @pytest.mark.parametrize("spectral", [False, True])
    def test_1d_vs_direct(self, rng, spectral):
        x, h = rng.normal(size=(5, 3)), rng.normal(size=(12, 3))
        y = circular_convolve(Tensor(x), _kernel_or_spectrum(h, [0], spectral), dims=[0]).data
        assert y.shape == x.shape
        for c in range(3):
            ref = circ_direct_1d(np.pad(x[:, c], (0, 7)), h[:, c])[7:]
            assert np.abs(y[:, c] - ref).max() < 1e-10

    @pytest.mark.parametrize("spectral", [False, True])
    def test_2d_vs_direct(self, rng, spectral):
        x, h = rng.normal(size=(2, 4, 6, 2)), rng.normal(size=(9, 12, 2))
        y = circular_convolve(Tensor(x), _kernel_or_spectrum(h, [-3, -2], spectral), dims=[-3, -2]).data
        assert y.shape == x.shape
        for b in range(2):
            for c in range(2):
                ref = circ_direct_2d(np.pad(x[b, :, :, c], [(0, 5), (0, 6)]), h[:, :, c])[5:, 6:]
                assert np.abs(y[b, :, :, c] - ref).max() < 1e-10

    def test_centered_window_is_the_direct_sum(self, rng):
        # A 2L-1 kernel padded at its front to M: the output is the centered
        # sum y[i] = sum_s x[s] * k[i - s + L - 1].
        n, m = 6, 14
        x, k = rng.normal(size=n), rng.normal(size=2 * n - 1)
        y = circular_convolve(Tensor(x), Tensor(np.pad(k, (m - 2 * n + 1, 0))), dims=[0]).data
        ref = [sum(x[s] * k[i - s + n - 1] for s in range(n)) for i in range(n)]
        assert np.abs(y - ref).max() < 1e-12

    @pytest.mark.parametrize("spectral", [False, True])
    def test_output_owns_its_buffer(self, rng, spectral):
        x, h = Tensor(rng.normal(size=(1, 5, 7, 2))), rng.normal(size=(9, 13, 2))
        y = circular_convolve(x, _kernel_or_spectrum(h, [-3, -2], spectral), dims=[-3, -2])
        assert y.data.base is None and y.data.flags.owndata

    @pytest.mark.parametrize("spectral", [False, True])
    def test_x_partial_is_the_padded_partial_cropped(self, rng, spectral):
        # The x-partial equals that of the explicitly padded input, first L kept.
        x, h, g = rng.normal(size=(5, 2)), rng.normal(size=(11, 2)), rng.normal(size=(5, 2))
        kernel = _kernel_or_spectrum(h, [0], spectral)
        xt, xp = Tensor(x), Tensor(np.pad(x, [(0, 6), (0, 0)]))
        with GradTape([xt]) as tape:
            y = circular_convolve(xt, kernel, dims=[0])
        (gx,) = tape.gradient(y, [xt], upstream=g)
        with GradTape([xp]) as tape:
            yp = circular_convolve(xp, kernel, dims=[0])
        (gp,) = tape.gradient(yp, [xp], upstream=np.pad(g, [(6, 0), (0, 0)]))
        assert np.abs(y.data - yp.data[6:]).max() < 1e-12
        assert np.abs(gx.data - gp.data[:5]).max() < 1e-12

    def test_x_broadcasts_against_h(self, rng):
        # x has one channel and h three: the product is wider than x's spectrum.
        x, h = rng.normal(size=(4, 1)), rng.normal(size=(9, 3))
        y = circular_convolve(Tensor(x), Tensor(h), dims=[0]).data
        for c in range(3):
            ref = circ_direct_1d(np.pad(x[:, 0], (0, 5)), h[:, c])[5:]
            assert np.abs(y[:, c] - ref).max() < 1e-10
        f = lambda a, b: nx.tensor_sum(nx.square(circular_convolve(a, b, dims=[0])))
        assert grad_check(f, [Tensor(x), Tensor(h)]) < 1e-5

    def test_spectral_gradient(self, rng):
        spectrum = nx.kernel_spectrum(Tensor(rng.normal(size=(9, 2))), [0])
        f = lambda a: nx.tensor_sum(nx.square(circular_convolve(a, spectrum, dims=[0])))
        assert grad_check(f, [Tensor(rng.normal(size=(4, 2)))]) < 1e-5

    @pytest.mark.parametrize("spectral", [False, True])
    def test_inverse_writes_into_the_product(self, rng, spectral):
        # A padded 2D pass holds the spectra (the kernel's as well unless it
        # is given as one) and its output, no third M-sized array for the
        # inverse transform to write.
        x = Tensor(rng.normal(size=(1, 16, 16, 32)))
        kernel = _kernel_or_spectrum(rng.normal(size=(31, 31, 32)), [-3, -2], spectral)
        spectrum_bytes = 31 * 16 * 32 * 16
        tracemalloc.start()
        try:
            y = circular_convolve(x, kernel, dims=[-3, -2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2 if spectral else 3) * spectrum_bytes + y.data.nbytes
        assert y.data.base is None and y.data.flags.owndata

    @pytest.mark.parametrize("spectral", [False, True])
    def test_transposed_input_matches_its_contiguous_copy(self, rng, spectral):
        # A transposed x has a spectrum that is not C-contiguous, whose
        # buffer the inverse does not reuse; values and partials are the same.
        x, h, g = rng.normal(size=(3, 6, 4)).T, rng.normal(size=(9, 11, 3)), rng.normal(size=(4, 6, 3))
        kernel = _kernel_or_spectrum(h, [0, 1], spectral)
        results = []
        for arr in (x, np.ascontiguousarray(x)):
            xt = Tensor(arr)
            with GradTape([xt]) as tape:
                y = circular_convolve(xt, kernel, dims=[0, 1])
            results.append((y.data, tape.gradient(y, [xt], upstream=g)[0].data))
        assert all(np.array_equal(a, b) for a, b in zip(*results))

    def test_h_with_more_axes_than_x_is_rejected(self, rng):
        # The output would otherwise be transformed along the wrong axis.
        with pytest.raises(ValueError, match="h has 2 axes, more than x's 1"):
            circular_convolve(Tensor(rng.normal(size=9)), Tensor(rng.normal(size=(2, 9))), dims=[0])

    def test_longer_x_is_rejected(self, rng):
        for h in (Tensor(rng.normal(size=(7, 2))), nx.kernel_spectrum(Tensor(rng.normal(size=(7, 2))), [0])):
            with pytest.raises(ValueError, match="does not match h"):
                circular_convolve(Tensor(rng.normal(size=(8, 2))), h, dims=[0])


class TestPrunedInverse:
    """The cached-spectrum path inverts only the rows its output reads: an
    in-place ifft over each axis but the last, then one irfft of the kept
    rows.  The output is entries M-L .. M-1 on each axis; the x-partial reads
    entries (L + s) mod M, which wrap past the end when M < 2L."""

    @staticmethod
    def window(full: np.ndarray, axes, start: int, size: int) -> np.ndarray:
        for ax in axes:
            full = np.take(full, (start + np.arange(size)) % full.shape[ax], axis=ax)
        return full

    @pytest.mark.parametrize("size,m", [(6, 12), (6, 11), (5, 6), (1, 1)])
    @pytest.mark.parametrize("axes", [(0,), (0, 1)])
    def test_equals_the_window_of_irfftn_bitwise(self, rng, size, m, axes):
        # (6, 12) is M = 2L, (6, 11) M = 2L - 1, where the x-partial's window
        # wraps by one row; at (5, 6) it wraps by four, with no free rows.
        lengths = (m,) * len(axes)
        f = np.fft.rfftn(rng.normal(size=lengths + (3,)), axes=axes)
        f *= np.fft.rfftn(rng.normal(size=lengths + (3,)), axes=axes)
        full = np.fft.irfftn(f, s=lengths, axes=axes)
        for start in (m - size, size % m):
            got = nx._pruned_irfftn(f.copy(), lengths, axes, (start,) * len(axes), (size,) * len(axes))
            assert np.array_equal(got, self.window(full, axes, start, size)), start

    @pytest.mark.parametrize("dims,size", [((0,), 6), ((0, 1), 5)])
    def test_wrapped_x_partial_is_the_direct_correlation(self, rng, dims, size):
        # M = 2L - 1: the x-partial's window wraps.  dy[i] / dx[s] is
        # h[(M - L + i - s) mod M], summed against the upstream gradient.
        m = 2 * size - 1
        shape, hshape = (size,) * len(dims) + (2,), (m,) * len(dims) + (2,)
        x, h, g = rng.normal(size=shape), rng.normal(size=hshape), rng.normal(size=shape)
        spectrum = nx.kernel_spectrum(Tensor(h), dims)
        xt = Tensor(x)
        with GradTape([xt]) as tape:
            y = circular_convolve(xt, spectrum, dims=dims)
        (gx,) = tape.gradient(y, [xt], upstream=g)
        ref = np.zeros_like(x)
        for s in np.ndindex(shape[:-1]):
            for i in np.ndindex(shape[:-1]):
                tap = tuple((m - size + a - b) % m for a, b in zip(i, s))
                ref[s] += g[i] * h[tap]
        assert np.abs(gx.data - ref).max() < 1e-12
        f = lambda a: nx.tensor_sum(nx.square(circular_convolve(a, spectrum, dims=dims)))
        assert grad_check(f, [Tensor(x)]) < 1e-5

    def test_2d_x_partial_allocates_no_m_by_m_array(self, rng):
        # L = 16, M = 31: the upstream gradient is transformed zero-padded
        # inside numpy, never placed in an M x M array, and only the 16 rows
        # the partial reads are inverted over the last axis.
        x = Tensor(rng.normal(size=(1, 16, 16, 32)))
        spectrum = nx.kernel_spectrum(Tensor(rng.normal(size=(31, 31, 32))), [-3, -2])
        g = rng.normal(size=x.shape)
        with GradTape([x]) as tape:
            y = circular_convolve(x, spectrum, dims=[-3, -2])
        spectrum_bytes, square_bytes = 31 * 16 * 32 * 16, 31 * 31 * 32 * 8
        tracemalloc.start()
        try:
            (gx,) = tape.gradient(y, [x], upstream=g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The spectrum, the x-partial's window and the 16 kept rows over the
        # last axis (126 KB) fit; another M x M array (246 KB) does not.
        assert peak < spectrum_bytes + square_bytes
        assert gx.shape == x.shape


class TestKernelPartial:
    """The kernel partial is ``irfftn(sum(conj(X) * G))``: the correlation of
    the upstream gradient with x, summed over the batch on the spectrum and
    read at entries (k + L) mod M."""

    @staticmethod
    def direct(x: np.ndarray, g: np.ndarray, m: int, nconv: int) -> np.ndarray:
        # dy[i] / dh[k] is x[s] where k = (M - L + i - s) mod M on each
        # convolved axis (axes 1 .. nconv of x and g, 0 .. nconv - 1 of h).
        size = x.shape[1 : 1 + nconv]
        ref = np.zeros((m,) * nconv + x.shape[1 + nconv :])
        for s in np.ndindex(size):
            for i in np.ndindex(size):
                tap = tuple((m - n + a - b) % m for n, a, b in zip(size, i, s))
                ref[tap] += (x[(slice(None),) + s] * g[(slice(None),) + i]).sum(axis=0)
        return ref

    @pytest.mark.parametrize("size,m", [(5, 9), (5, 12)])
    @pytest.mark.parametrize("dims", [(-2,), (-3, -2)])
    def test_equals_the_direct_correlation(self, rng, dims, size, m):
        # Batch 3; M = 2L - 1 (the window wraps) and M > 2L - 1.
        nconv = len(dims)
        shape, hshape = (3,) + (size,) * nconv + (2,), (m,) * nconv + (2,)
        x, h, g = rng.normal(size=shape), rng.normal(size=hshape), rng.normal(size=shape)
        ht = Tensor(h)
        with GradTape([ht]) as tape:
            y = circular_convolve(Tensor(x), ht, dims=dims)
        (gh,) = tape.gradient(y, [ht], upstream=g)
        assert np.abs(gh.data - self.direct(x, g, m, nconv)).max() < 1e-12

    def test_kernel_broadcast_over_an_axis_is_summed(self, rng):
        # separable2d's vertical kernel (ky, 1, C) against [B, H, W, C]: the
        # partial sums over the batch and over W.
        x, h, g = rng.normal(size=(3, 5, 4, 2)), rng.normal(size=(9, 1, 2)), rng.normal(size=(3, 5, 4, 2))
        ht = Tensor(h)
        with GradTape([ht]) as tape:
            y = circular_convolve(Tensor(x), ht, dims=[-3])
        (gh,) = tape.gradient(y, [ht], upstream=g)
        assert gh.shape == h.shape
        assert np.abs(gh.data - self.direct(x, g, 9, 1).sum(axis=1, keepdims=True)).max() < 1e-12
        f = lambda a, b: nx.tensor_sum(nx.square(circular_convolve(a, b, dims=[-3])))
        assert grad_check(f, [Tensor(x), Tensor(h)]) < 1e-5

    @pytest.mark.parametrize("batch", [1, 4])
    def test_one_inverse_per_pass_whatever_the_batch(self, rng, monkeypatch, batch):
        x, h = Tensor(rng.normal(size=(batch, 8, 8, 3))), Tensor(rng.normal(size=(15, 15, 3)))
        with GradTape([x, h]) as tape:
            y = circular_convolve(x, h, dims=[-3, -2])
        calls = Counter()
        for name in FFT_ENTRY_POINTS:
            fn = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda *a, fn=fn, name=name, **k: calls.update([name]) or fn(*a, **k))
        tape.gradient(y, [x, h], upstream=rng.normal(size=x.shape))
        # G and X forward; the x-partial's ifft and irfft; the kernel
        # partial's one irfftn, after the sum over the batch.
        assert calls == Counter(rfftn=2, ifft=1, irfft=1, irfftn=1)


class TestChannelBlocks:
    """A circular_convolve whose spectrum exceeds the block budget loops over
    blocks of its trailing channels inside the one op; each channel goes
    through the same transforms as on its own."""

    def test_blocks_match_per_channel_calls_bitwise(self, rng, monkeypatch):
        # 120 channels of a 2 x 48 x 25 half spectrum: 38 KB each, three blocks.
        x, h, g = rng.normal(size=(2, 24, 24, 120)), rng.normal(size=(48, 48, 120)), rng.normal(size=(2, 24, 24, 120))
        xt, ht = Tensor(x), Tensor(h)
        calls = Counter()
        rfftn = np.fft.rfftn
        monkeypatch.setattr(np.fft, "rfftn", lambda *a, **k: calls.update(["rfftn"]) or rfftn(*a, **k))
        with GradTape([xt, ht]) as tape:
            y = circular_convolve(xt, ht, dims=[-3, -2])
        assert len(tape.nodes) == 1
        assert calls["rfftn"] - 1 >= 3  # the kernel's transform, then one per block of x
        monkeypatch.undo()
        gx, gh = tape.gradient(y, [xt, ht], upstream=g)
        ref = {"y": [], "gx": [], "gh": []}
        for c in range(120):
            xc, hc = Tensor(x[..., c : c + 1]), Tensor(h[..., c : c + 1])
            with GradTape([xc, hc]) as tape:
                yc = circular_convolve(xc, hc, dims=[-3, -2])
            gxc, ghc = tape.gradient(yc, [xc, hc], upstream=g[..., c : c + 1])
            for name, a in (("y", yc), ("gx", gxc), ("gh", ghc)):
                ref[name].append(a.data)
        for name, got in (("y", y), ("gx", gx), ("gh", gh)):
            assert _sha256(got.data) == _sha256(np.concatenate(ref[name], axis=-1)), name

    def test_stage_one_spectral_pass_stays_under_five_megabytes(self, rng):
        # The 56 x 56 x 64 map of a 224 px model against M = 112: one spectrum
        # of the whole map is 112 * 57 * 64 complex (6.5 MB), and the whole
        # transform peaked at 11.4 MB before the channels ran in blocks.
        x = Tensor(rng.normal(size=(1, 56, 56, 64)))
        spectrum = nx.kernel_spectrum(Tensor(rng.normal(size=(112, 112, 64))), [-3, -2])
        tracemalloc.start()
        try:
            y = circular_convolve(x, spectrum, dims=[-3, -2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.shape == x.shape
        assert peak < 5e6


@pytest.fixture
def pool_submits(monkeypatch):
    """Two workers run the blocks; counts the blocks handed to them."""
    monkeypatch.setattr(nx, "_WORKERS", 2)
    pool, submits = nx._pool(), Counter()

    class CountingPool:
        def submit(self, fn, *args):
            submits["blocks"] += 1
            return pool.submit(fn, *args)

    monkeypatch.setattr(nx, "_pool", CountingPool)
    return submits


_FIVE_BY_FIVE = [(dy, dx) for dy in range(-2, 3) for dx in range(-2, 3)]
_THREE_TAPS = [(-1,), (0,), (1,)]


def _pool_case(name: str, rng):
    """(op, input arrays, output shape) of a call whose forward pass and VJP
    both run in several blocks."""
    if name == "circular_convolve":  # five blocks of 24 channels
        arrays = [rng.normal(size=(2, 24, 24, 120)), rng.normal(size=(48, 48, 120))]
        return (lambda x, h: circular_convolve(x, h, dims=[-3, -2])), arrays, (2, 24, 24, 120)
    if name == "feed_forward":  # the stage-1 map of a 224 px model
        c = 64
        arrays = [rng.normal(size=(1, 56, 56, c)), 1.0 + 0.1 * rng.normal(size=c), 0.1 * rng.normal(size=c),
                  rng.normal(size=(c, 4 * c)) / 8.0, 0.1 * rng.normal(size=4 * c), np.float64(0.9),
                  np.float64(-0.4), rng.normal(size=(4 * c, c)) / 16.0, 0.1 * rng.normal(size=c)]
        return (lambda x, ga, be, *t: nx.feed_forward(x, ga, be, 1e-6, *t)), arrays, (1, 56, 56, c)
    offsets, axes, shape = {
        "pointwise_depthwise-2d": (_FIVE_BY_FIVE, (-3, -2), (1, 40, 40, 32)),
        "pointwise_depthwise-1d": (_THREE_TAPS, (-2,), (2, 3000, 8)),
        "shift_convolve-2d": (_FIVE_BY_FIVE, (-3, -2), (1, 64, 64, 48)),
        "shift_convolve-1d": (_THREE_TAPS, (-2,), (2, 6000, 16)),
    }[name]
    c = shape[-1]
    if name.startswith("shift_convolve"):
        arrays = [rng.normal(size=shape), rng.normal(size=(len(offsets), c))]
        return (lambda x, w: nx.shift_convolve(x, w, offsets, axes)), arrays, shape
    arrays = [rng.normal(size=shape), rng.normal(size=(c, 3 * c)) / np.sqrt(c), 0.1 * rng.normal(size=3 * c),
              0.2 * rng.normal(size=(len(offsets), 3 * c)), 0.1 * rng.normal(size=3 * c)]
    return (lambda *t: nx.pointwise_depthwise(*t, offsets, axes)), arrays, shape[:-1] + (3 * c,)


def _digests(op, arrays, g) -> list[str]:
    """sha256 of ``op``'s output and of its partials at upstream ``g``."""
    inputs = [Tensor(a) for a in arrays]
    with GradTape(inputs) as tape:
        y = op(*inputs)
    return [_sha256(t.data) for t in [y, *tape.gradient(y, inputs, upstream=g)]]


class TestBlockPool:
    """The wide ops run their blocks on a pool of worker threads.  Block
    boundaries do not depend on the workers, so the pooled results are the
    serial ones to the bit."""

    @pytest.mark.parametrize("name", ["circular_convolve", "feed_forward", "pointwise_depthwise-2d",
                                      "pointwise_depthwise-1d", "shift_convolve-2d", "shift_convolve-1d"])
    def test_pooled_equals_serial_bitwise(self, rng, monkeypatch, pool_submits, name):
        op, arrays, out_shape = _pool_case(name, rng)
        g = rng.normal(size=out_shape)
        pooled = _digests(op, arrays, g)
        # At least two blocks each way: the forward pass and the VJP.
        assert pool_submits["blocks"] >= 4
        monkeypatch.setattr(nx, "_WORKERS", 1)
        submitted = pool_submits["blocks"]
        assert _digests(op, arrays, g) == pooled
        assert pool_submits["blocks"] == submitted

    def test_more_workers_than_cores_with_fast_switching_stay_bitwise(self, rng, monkeypatch):
        op, arrays, out_shape = _pool_case("feed_forward", rng)
        g = rng.normal(size=out_shape)
        monkeypatch.setattr(nx, "_WORKERS", 1)
        serial = _digests(op, arrays, g)
        monkeypatch.setattr(nx, "_WORKERS", 4)
        monkeypatch.setattr(nx, "_POOL", None)  # a pool of four of its own
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [_digests(op, arrays, g) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
            nx._pool().shutdown(wait=True)
        assert runs == [serial] * 3

    def test_block_exception_reaches_the_caller_unchanged(self, pool_submits):
        err = ValueError("block 2 failed")
        started, finished = [], []

        def fn(i):
            started.append(i)
            try:
                if i == 2:
                    raise err
                return i
            finally:
                finished.append(i)

        with pytest.raises(ValueError) as info:
            list(nx._each_block(fn, range(6)))
        assert info.value is err
        assert pool_submits["blocks"] >= 3
        # Every block that started has finished by the time the caller sees it.
        assert sorted(started) == sorted(finished) and 5 not in started

    def test_blocks_of_a_block_run_on_its_worker(self, pool_submits):
        caller = threading.get_ident()
        seen = []

        def inner(j):
            return threading.get_ident()

        def outer(i):
            seen.append((threading.get_ident(), list(nx._each_block(inner, range(3)))))

        runner = threading.Thread(target=lambda: list(nx._each_block(outer, range(4))))
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive(), "a block waiting on blocks of its own deadlocked"
        assert len(seen) == 4 and pool_submits["blocks"] == 4
        for worker, inner_threads in seen:
            assert worker != caller and inner_threads == [worker] * 3

    def test_forked_child_runs_blocks(self, monkeypatch):
        monkeypatch.setattr(nx, "_WORKERS", 2)
        assert list(nx._each_block(lambda i: i * i, range(4))) == [0, 1, 4, 9]
        assert nx._POOL is not None
        pid = os.fork()
        if pid == 0:  # the child has none of the parent's worker threads
            ok = list(nx._each_block(lambda i: i * i, range(4))) == [0, 1, 4, 9]
            os._exit(0 if ok else 1)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


def shift_direct(x: np.ndarray, w: np.ndarray, offsets, axes) -> np.ndarray:
    """y = sum_t w[t] * shift(x, offsets[t]) as one shifted add per tap."""
    y = np.zeros_like(x)
    for t, off in enumerate(offsets):
        src, dst = [slice(None)] * x.ndim, [slice(None)] * x.ndim
        for a, o in zip(axes, off):
            n = x.shape[a]
            if abs(o) >= n:
                break
            dst[a], src[a] = (slice(o, n), slice(0, n - o)) if o >= 0 else (slice(0, n + o), slice(-o, n))
        else:
            y[tuple(dst)] += w[t] * x[tuple(src)]
    return y


def strided_direct(x, w, b, stride, padding) -> np.ndarray:
    """Each output pixel as the sum over its window, one pixel at a time."""
    k, n = w.shape[0], x.shape[0]
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    ho = (xp.shape[1] - k) // stride + 1
    wo = (xp.shape[2] - k) // stride + 1
    y = np.zeros((n, ho, wo, w.shape[3]))
    for i in range(ho):
        for j in range(wo):
            patch = xp[:, i * stride : i * stride + k, j * stride : j * stride + k, :]
            y[:, i, j] = np.einsum("nyxc,yxco->no", patch, w) + b
    return y


SHIFT_CASES = {
    "contiguous": ([(-1,), (0,), (1,)], (-2,)),
    "gapped": ([(-1,), (0,), (2,)], (-2,)),
    "all-positive": ([(1,), (3,), (4,)], (-2,)),
    "all-negative": ([(-4,), (-2,), (-1,)], (-2,)),
    "beyond-length": ([(-9,), (0,), (7,), (12,)], (-2,)),
    "2d-box": ([(dy, dx) for dy in range(-2, 3) for dx in range(-2, 3)], (-3, -2)),
    "2d-sparse": ([(1, 1), (0, 2), (2, -1), (-3, 0), (0, 8)], (-3, -2)),
    "causal": ([(t,) for t in range(6)], (-2,)),
}


class TestShiftConvolve:
    @pytest.mark.parametrize("name", sorted(SHIFT_CASES))
    @pytest.mark.parametrize("per_channel", [True, False])
    def test_matches_shift_add_reference(self, rng, name, per_channel):
        offsets, axes = SHIFT_CASES[name]
        shape = (2, 3, 6, 7, 4) if len(axes) == 2 else (2, 3, 7, 4)
        x = rng.normal(size=shape)
        w = rng.normal(size=(len(offsets), 4) if per_channel else (len(offsets),))
        y = nx.shift_convolve(Tensor(x), Tensor(w), offsets, axes).data
        assert np.abs(y - shift_direct(x, w, offsets, axes)).max() < 1e-12
        # The VJP against the reference's own transpose: <g, y(x)> = <gx, x>.
        g = rng.normal(size=shape)
        xt, wt = Tensor(x), Tensor(w)
        with GradTape([xt, wt]) as tape:
            yt = nx.shift_convolve(xt, wt, offsets, axes)
        gx, gw = tape.gradient(yt, [xt, wt], upstream=g)
        for t in range(len(offsets)):
            one = np.zeros_like(w)
            one[t] = 1.0
            ref = (g * shift_direct(x, one, offsets, axes)).sum(axis=tuple(range(x.ndim - w.ndim + 1)))
            assert np.abs(gw.data[t] - ref).max() < 1e-12
        ref_gx = np.zeros_like(x)
        for i in np.ndindex(*x.shape[:-1]):
            e = np.zeros_like(x)
            e[i] = 1.0
            ref_gx[i] = (g * shift_direct(e, w, offsets, axes)).sum(axis=tuple(range(x.ndim - 1)))
        assert np.abs(gx.data - ref_gx).max() < 1e-12

    @pytest.mark.parametrize("name", ["gapped", "all-negative", "2d-sparse"])
    def test_gradients(self, rng, name):
        offsets, axes = SHIFT_CASES[name]
        shape = (6, 7, 2) if len(axes) == 2 else (7, 2)
        f = lambda a, w: nx.tensor_sum(nx.square(nx.shift_convolve(a, w, offsets, axes)))
        inputs = [Tensor(rng.normal(size=shape)), Tensor(rng.normal(size=(len(offsets), 2)))]
        assert grad_check(f, inputs) < 1e-5

    def test_one_dimensional_input(self, rng):
        x, w = rng.normal(size=9), rng.normal(size=3)
        y = nx.shift_convolve(Tensor(x), Tensor(w), [(-1,), (0,), (2,)], (0,)).data
        assert np.abs(y - shift_direct(x, w, [(-1,), (0,), (2,)], (0,))).max() < 1e-12

    def test_offset_length_must_match_axes(self, rng):
        x, w = Tensor(rng.normal(size=(8, 2))), Tensor(rng.normal(size=(2, 2)))
        with pytest.raises(ValueError, match=r"offset \(0, 1\) has 2 entries for 1 axes"):
            nx.shift_convolve(x, w, [(0, 1), (1, 5)], (-2,))
        with pytest.raises(ValueError, match="offset count"):
            nx.shift_convolve(x, w, [(0,)], (-2,))

    def test_tap_weights_stay_off_the_convolved_axes(self, rng):
        x, w = Tensor(rng.normal(size=(8, 2))), Tensor(rng.normal(size=(2, 8, 2)))
        with pytest.raises(ValueError, match="reach into the convolved axes"):
            nx.shift_convolve(x, w, [(0,), (1,)], (-2,))


class TestStridedConv2d:
    @pytest.mark.parametrize(
        "shape,k,stride,padding",
        [
            ((2, 32, 32, 3), 7, 4, 2),  # the patch stem
            ((1, 8, 8, 4), 3, 2, 1),  # downsampling
            ((2, 9, 13, 3), 3, 2, 1),  # odd sides
            ((1, 11, 7, 2), 7, 4, 2),
        ],
    )
    def test_matches_direct_loop(self, rng, shape, k, stride, padding):
        x = rng.normal(size=shape)
        w = rng.normal(size=(k, k, shape[3], 5))
        b = rng.normal(size=5)
        y = nx.strided_conv2d(Tensor(x), Tensor(w), Tensor(b), stride, padding).data
        assert np.abs(y - strided_direct(x, w, b, stride, padding)).max() < 1e-12

    def test_stem_gradient(self, rng):
        x = Tensor(rng.normal(size=(1, 11, 9, 2)))
        w = Tensor(rng.normal(size=(7, 7, 2, 3)))
        b = Tensor(rng.normal(size=3))
        f = lambda xx, ww, bb: nx.tensor_sum(nx.square(nx.strided_conv2d(xx, ww, bb, 4, 2)))
        assert grad_check(f, [x, w, b]) < 1e-5

    @pytest.mark.parametrize(
        "w_shape,b_shape,stride,padding,match",
        [
            ((3, 3, 2, 4), (4,), 0, 1, "stride"),
            ((3, 3, 2, 4), (4,), -1, 1, "stride"),
            ((3, 3, 2, 4), (4,), 2, -1, "padding"),
            ((3, 5, 2, 4), (4,), 2, 1, "weight"),
            ((3, 3, 2), (4,), 2, 1, "weight"),
            ((3, 3, 2, 4), (3,), 2, 1, "bias"),
            ((3, 3, 2, 4), (1, 4), 2, 1, "bias"),
        ],
    )
    def test_named_errors(self, rng, w_shape, b_shape, stride, padding, match):
        x = Tensor(rng.normal(size=(1, 8, 8, 2)))
        w, b = Tensor(rng.normal(size=w_shape)), Tensor(rng.normal(size=b_shape))
        with pytest.raises(ValueError, match=match):
            nx.strided_conv2d(x, w, b, stride, padding)


class TestMatmul:
    @pytest.mark.parametrize("a_shape", [(4,), (3, 4), (2, 3, 5, 4)])
    def test_leading_axes(self, rng, a_shape):
        a, b = rng.normal(size=a_shape), rng.normal(size=(4, 6))
        y = nx.matmul(Tensor(a), Tensor(b)).data
        assert y.shape == a_shape[:-1] + (6,)
        assert np.abs(y - np.einsum("...k,km->...m", a, b)).max() < 1e-12
        f = lambda p, q: nx.tensor_sum(nx.square(nx.matmul(p, q)))
        assert grad_check(f, [Tensor(a), Tensor(b)]) < 1e-5

    def test_b_must_be_two_dimensional(self, rng):
        with pytest.raises(ValueError, match="b of shape"):
            nx.matmul(Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(2, 4, 6))))
        with pytest.raises(ValueError, match="b of shape"):
            nx.matmul(Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=4)))

    def test_inner_lengths_must_match(self, rng):
        # [4, 6] would reshape to [8, 3] without the check.
        with pytest.raises(ValueError, match="does not end in"):
            nx.matmul(Tensor(rng.normal(size=(4, 6))), Tensor(rng.normal(size=(3, 2))))


def _retained_bytes(op, x, nodes=1, also=()):
    """Bytes still allocated after recording ``op(x)`` on a tape of ``x`` and
    the tensors in ``also``, beyond the output itself."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with GradTape([x, *also]) as tape:
            y = op(x)
        retained = tracemalloc.get_traced_memory()[0] - before - y.data.nbytes
    finally:
        tracemalloc.stop()
    assert len(tape.nodes) == nodes
    return retained


def _ops_on_an_intermediate(rng):
    """Ops whose tracked input is an activation the forward pass drops: the
    output of a ``neg`` (or, for one spectral convolution row, the padded
    input) of a [2, 16, 16, 32] x.  Every other operand is an untracked
    constant.  The unpadded spectral row also checks that no 31 x 31 array
    outlives the call."""
    c, bias = Tensor(rng.normal(size=(2, 16, 16, 32))), Tensor(rng.normal(size=32))
    w = Tensor(rng.normal(size=(32, 8)))
    taps, offsets = Tensor(rng.normal(size=(9, 32))), [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
    cw, cb = Tensor(rng.normal(size=(3, 3, 32, 8))), Tensor(rng.normal(size=8))
    spectrum = nx.kernel_spectrum(Tensor(rng.normal(size=(31, 31, 32))), [-3, -2])
    return {
        "add": lambda t: nx.add(nx.neg(t), bias),
        "crop": lambda t: nx.crop(nx.neg(t), [slice(None), slice(0, 4)]),
        "pad": lambda t: nx.pad(nx.neg(t), [(0, 0), (0, 1), (0, 1), (0, 0)]),
        "reshape": lambda t: nx.reshape(nx.neg(t), (2, 256, 32)),
        "mean": lambda t: nx.mean(nx.neg(t), axis=(1, 2)),
        "mul": lambda t: nx.mul(nx.neg(t), c),
        "matmul": lambda t: nx.matmul(nx.neg(t), w),
        "shift_convolve": lambda t: nx.shift_convolve(nx.neg(t), taps, offsets, (-3, -2)),
        "strided_conv2d": lambda t: nx.strided_conv2d(nx.neg(t), cw, cb, 2, 1),
        "circular_convolve": lambda t: circular_convolve(
            nx.pad(t, [(0, 0), (0, 15), (0, 15), (0, 0)]), spectrum, dims=[-3, -2]),
        "circular_convolve_unpadded": lambda t: circular_convolve(nx.neg(t), spectrum, dims=[-3, -2]),
    }


class TestRecordedMemory:
    """A recorded VJP keeps only the arrays its needed partials read: not the
    padded or unfolded copies it builds from them, and no input that those
    partials do not read."""

    def test_shift_convolve_keeps_no_padded_copy_or_grid(self, rng):
        x = Tensor(rng.normal(size=(1, 32, 32, 64)))
        w = Tensor(rng.normal(size=(49, 64)))
        offsets = [(dy, dx) for dy in range(-3, 4) for dx in range(-3, 4)]
        retained = _retained_bytes(lambda t: nx.shift_convolve(t, w, offsets, (-3, -2)), x)
        # A padded x is 38 * 38 * 64 * 8 bytes, the 7x7 tap grid 25 KB.
        assert retained < 8_000

    def test_strided_conv2d_keeps_no_padded_copy_or_columns(self, rng):
        x = Tensor(rng.normal(size=(1, 64, 64, 8)))
        w, b = Tensor(rng.normal(size=(7, 7, 8, 4))), Tensor(rng.normal(size=4))
        retained = _retained_bytes(lambda t: nx.strided_conv2d(t, w, b, 4, 2), x)
        # A padded x is 68 * 68 * 8 * 8 bytes; the im2col matrix 256 * 392 * 8.
        assert retained < 8_000

    def test_matmul_keeps_nothing_but_its_output(self, rng):
        x = Tensor(rng.normal(size=(2, 16, 16, 32)))
        w = Tensor(rng.normal(size=(32, 64)))
        assert _retained_bytes(lambda t: nx.matmul(t, w), x) < 8_000

    def test_layer_norm_keeps_only_the_normalised_input(self, rng):
        x = Tensor(rng.normal(size=(2, 16, 16, 32)))
        g, b = Tensor(rng.normal(size=32)), Tensor(rng.normal(size=32))
        retained = _retained_bytes(lambda t: nx.layer_norm(t, g, b, 1e-6), x)
        # The normalised x and one inverse deviation per position (4 KB).
        assert retained < x.data.nbytes + 8_000

    def test_feed_forward_keeps_its_input_not_the_hidden_layer(self, rng):
        x = Tensor(rng.normal(size=(2, 16, 16, 32)))
        g, be = Tensor(rng.normal(size=32)), Tensor(rng.normal(size=32))
        w1, b1 = Tensor(rng.normal(size=(32, 128))), Tensor(rng.normal(size=128))
        w2, b2 = Tensor(rng.normal(size=(128, 32))), Tensor(rng.normal(size=32))
        s, b = Tensor(1.3), Tensor(-0.2)
        ffn = lambda t: nx.feed_forward(nx.neg(t), g, be, 1e-6, w1, b1, s, b, w2, b2)
        # The normalised negated input (128 KB), not the 4x-wide hidden layer (512 KB).
        assert _retained_bytes(ffn, x, nodes=2) < x.data.nbytes + 8_000

    def test_feed_forward_keeps_the_normalised_input_not_the_norm_output(self, rng):
        x = Tensor(rng.normal(size=(2, 16, 16, 32)))
        g, be = Tensor(rng.normal(size=32)), Tensor(rng.normal(size=32))
        w1, b1 = Tensor(rng.normal(size=(32, 128))), Tensor(rng.normal(size=128))
        w2, b2 = Tensor(rng.normal(size=(128, 32))), Tensor(rng.normal(size=32))
        ffn = lambda t: nx.feed_forward(t, g, be, 1e-6, w1, b1, Tensor(1.3), Tensor(-0.2), w2, b2)
        # xh (128 KB) and one inverse deviation per position (4 KB): not the
        # norm's output y (another 128 KB), nor the hidden layer (512 KB).
        retained = _retained_bytes(ffn, x)
        assert x.data.nbytes <= retained < x.data.nbytes + 8_000

    def test_pointwise_depthwise_keeps_its_input_not_the_wide_map(self, rng):
        x = Tensor(rng.normal(size=(2, 16, 16, 32)))
        pw, pb = Tensor(rng.normal(size=(32, 96))), Tensor(rng.normal(size=96))
        dw, db = Tensor(rng.normal(size=(25, 96))), Tensor(rng.normal(size=96))
        offsets = [(dy, dx) for dy in range(-2, 3) for dx in range(-2, 3)]
        op = lambda t: nx.pointwise_depthwise(nx.neg(t), pw, pb, dw, db, offsets, (-3, -2))
        # dw's partial recomputes the wide map: the tape keeps the negated
        # input (128 KB), not the 3x-wide map (384 KB) or its padded copy.
        retained = _retained_bytes(op, x, nodes=2, also=[dw])
        assert x.data.nbytes <= retained < x.data.nbytes + 8_000

    def test_circular_convolve_keeps_the_kernel_spectrum_or_x(self, rng):
        # An x-only tape keeps the kernel's spectrum (31 * 16 * 32 complex,
        # 254 KB), not x (128 KB); an h-only tape keeps x and no spectrum.
        x = Tensor(rng.normal(size=(2, 16, 16, 32)))
        h = Tensor(rng.normal(size=(31, 31, 32)))
        spectrum_bytes = 31 * 16 * 32 * 16
        x_only = _retained_bytes(lambda t: circular_convolve(nx.neg(t), h, dims=[-3, -2]), x, nodes=2)
        assert spectrum_bytes <= x_only < spectrum_bytes + 8_000
        h_only = _retained_bytes(lambda t: circular_convolve(nx.neg(x), t, dims=[-3, -2]), h)
        assert x.data.nbytes <= h_only < x.data.nbytes + 8_000

    def test_star_relu_keeps_nothing_but_its_output(self, rng):
        x = Tensor(rng.normal(size=(2, 16, 16, 32)))
        s, b = Tensor(1.3), Tensor(-0.2)
        assert _retained_bytes(lambda t: nx.star_relu(t, s, b), x) < 8_000

    @pytest.mark.parametrize("name", sorted(_ops_on_an_intermediate(np.random.default_rng(0))))
    def test_untracked_operands_partial_keeps_no_intermediate(self, rng, name):
        # The intermediate (128 KB, the padded one 492 KB) is freed with its
        # Tensor unless the op's VJP captured it: none of these partials reads it.
        x = Tensor(rng.normal(size=(2, 16, 16, 32)))
        assert _retained_bytes(_ops_on_an_intermediate(rng)[name], x, nodes=2) < 8_000

    def test_gradient_drops_each_vjp_and_its_captures(self, rng):
        x = Tensor(rng.normal(size=(4, 8)))
        with GradTape([x]) as tape:
            e = nx.exp(nx.square(x))
            captured = weakref.ref(e.data)  # only exp's VJP keeps it
            y = nx.tensor_sum(e)
            del e
        assert captured() is not None
        square_node = tape.nodes[0]
        freed, vjp = [], square_node._vjp
        square_node._vjp = lambda g: freed.append(captured() is None) or vjp(g)
        (gx,) = tape.gradient(y, [x])
        assert freed == [True]  # gone before the earlier VJP ran
        assert all(node._vjp is None for node in tape.nodes)
        assert np.array_equal(gx.data, np.exp(x.data * x.data) * (2.0 * x.data))


class TestTapeAndVjp:
    def test_conv_with_impulse_passes_gradient(self, rng):
        x = Tensor(rng.normal(size=6), requires_grad=True)
        h = Tensor([1.0, 0, 0, 0, 0, 0])
        g = rng.normal(size=6)
        with GradTape() as tape:
            y = circular_convolve(x, h, dims=[0])
        (gx,) = [t.data for t in tape.gradient(y, [x], upstream=g)]
        assert np.abs(gx - g).max() < 1e-12

    def test_unused_input_gets_exact_zero(self, rng):
        x = Tensor(rng.normal(size=4), requires_grad=True)
        z = Tensor(rng.normal(size=4), requires_grad=True)
        with GradTape() as tape:
            y = nx.tensor_sum(nx.square(x))
        gx, gz = tape.gradient(y, [x, z])
        assert np.abs(gx.data - 2 * x.data).max() < 1e-12
        assert np.array_equal(gz.data, np.zeros(4))

    def test_tape_consumed_twice_errors(self, rng):
        x = Tensor(rng.normal(size=4), requires_grad=True)
        with GradTape() as tape:
            y = nx.tensor_sum(x)
        tape.gradient(y, [x])
        with pytest.raises(RuntimeError):
            tape.gradient(y, [x])

    def test_reverse_topological_replay(self, rng):
        # Recording order is a topological order; replay must be its reverse.
        x = Tensor(rng.normal(size=3), requires_grad=True)
        with GradTape() as tape:
            a = nx.mul(x, 2.0)
            b = nx.add(a, 1.0)
            c = nx.tensor_sum(b)
        ops = [n.op for n in tape.nodes]
        assert ops == ["mul", "add", "sum"]
        (gx,) = tape.gradient(c, [x])
        assert np.allclose(gx.data, 2.0)

    @pytest.mark.parametrize("axis", [None, 0, (-3, -2), (0, 2)])
    def test_mean_records_one_node(self, axis, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)))
        g_shape = np.mean(x.data, axis=axis).shape
        g = rng.normal(size=g_shape)
        with GradTape([x]) as tape:
            y = nx.mean(x, axis=axis)
        (node,) = tape.nodes
        count = x.size // max(int(np.prod(g_shape)), 1)
        assert node.op == "mean"
        # The head's mean pool: the sum times 1/count, so its bits are unchanged.
        assert np.array_equal(y.data, x.data.sum(axis=axis) * (1.0 / count))
        (gx,) = tape.gradient(y, [x], upstream=g)
        expanded = g if axis is None else np.expand_dims(g, axis)
        assert np.array_equal(gx.data, np.broadcast_to(expanded * (1.0 / count), x.shape))

    def test_nested_tape_rejected(self):
        with GradTape():
            with pytest.raises(RuntimeError):
                with GradTape():
                    pass

    def test_non_finite_tensor_rejected(self):
        with pytest.raises(ValueError):
            Tensor([1.0, np.inf])
        with pytest.raises(ValueError):
            Tensor([np.nan])

    def test_keys_stay_distinct_when_ids_are_reused(self, rng):
        # The tape holds no tensor, so temporaries die and CPython hands
        # their ids to later tensors; keys must still name each one apart.
        # Each temporary is dropped before the next is made, and the pass is
        # retried, up to 20 times, until the allocator has reused an id.
        made = []

        def f(x):
            y = x
            for _ in range(40):
                t = nx.mul(y, 0.5)
                made.append((id(t), t.key))
                y = nx.add(nx.sin(t), y)
                del t
            return nx.tensor_sum(nx.square(y))

        x = Tensor(rng.normal(size=5))
        for _ in range(20):
            made.clear()
            with GradTape([x]) as tape:
                f(x)
            ids, keys = zip(*made)
            if len(set(ids)) < len(ids):
                break
        assert len(set(ids)) < len(ids)
        assert len(set(keys)) == len(keys)
        assert len({node.output for node in tape.nodes}) == len(tape.nodes)
        assert grad_check(f, [x]) < 1e-5

    @pytest.mark.parametrize("value,dtype", [
        (np.array([1 + 2j, 3]), "complex128"),
        (np.array(["1.5", "2"]), "<U3"),
        (np.array([b"1.5", b"2"]), "|S3"),
        (None, "object"),
        (np.array([1.5, 2.0], dtype=object), "object"),
    ])
    def test_non_real_input_rejected_naming_its_dtype(self, value, dtype):
        with pytest.raises(ValueError, match=re.escape(f"not values of dtype {dtype}")):
            Tensor(value)

    @pytest.mark.parametrize("value", [
        np.array([1.5, -2.25], dtype=np.float32),
        np.array([1.5, -2.25], dtype=np.float16),
        np.array([3, -4], dtype=np.int32),
        np.array([3, 250], dtype=np.uint8),
        np.array([True, False]),
        [1, 2.5],
    ])
    def test_real_input_becomes_float64(self, value):
        t = Tensor(value)
        assert t.dtype == np.float64 and np.array_equal(t.data, np.asarray(value, dtype=np.float64))

    def test_float64_input_is_not_copied(self, rng):
        # grad_check perturbs inputs through their arrays.
        a = rng.normal(size=3)
        assert Tensor(a).data is a

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy])
    def test_copies_get_fresh_keys(self, rng, clone):
        x = Tensor(rng.normal(size=3), requires_grad=True)
        c = clone(x)
        assert c.key != x.key and c.requires_grad and np.array_equal(c.data, x.data)
        with GradTape([x]) as tape:
            y = nx.tensor_sum(nx.mul(x, c))
        gx, gc = tape.gradient(y, [x, c])
        assert np.array_equal(gx.data, c.data) and np.array_equal(gc.data, np.zeros(3))


# Smoothed one-hot targets (smoothing 0.2) of labels 1, 3 and 0 over 4 classes.
SMOOTHED_TARGETS = np.full((3, 4), 0.05) + 0.8 * np.eye(4)[[1, 3, 0]]


PRUNED_OPS = {
    "matmul": (lambda x, w: nx.matmul(x, w), [(2, 3, 4), (4, 5)]),
    "strided_conv2d": (lambda x, w, b: nx.strided_conv2d(x, w, b, 2, 1),
                       [(1, 6, 6, 2), (3, 3, 2, 4), (4,)]),
    "circular_convolve": (lambda x, h: circular_convolve(x, h, dims=[0]), [(9, 2), (9, 2)]),
    "circular_convolve_unpadded": (lambda x, h: circular_convolve(x, h, dims=[0]), [(5, 2), (9, 2)]),
    "shift_convolve": (lambda x, w: nx.shift_convolve(x, w, [(-1,), (0,), (2,)], (-2,)),
                       [(6, 2), (3, 2)]),
    "layer_norm": (lambda x, g, b: nx.layer_norm(x, g, b, 1e-6), [(2, 3, 5), (5,), (5,)]),
    "star_relu": (lambda x, s, b: nx.star_relu(x, s, b), [(2, 3, 5), (), ()]),
    "feed_forward": (lambda x, g, b, *t: nx.feed_forward(x, g, b, 1e-6, *t),
                     [(2, 3, 4), (4,), (4,), (4, 8), (8,), (), (), (8, 4), (4,)]),
}


def _layer_norm_reference(x, gamma, beta, eps, g):
    """Output and partials of the layer norm composed of elementary steps,
    the partials taken by back-propagating through each step in turn."""
    c = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / c
    centered = x - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / c
    root = np.sqrt(var + eps)
    normed = centered / root
    y = normed * gamma + beta
    lead = tuple(range(x.ndim - 1))
    g_gamma, g_beta = (g * normed).sum(axis=lead), g.sum(axis=lead)
    g_normed = g * gamma
    g_centered = g_normed / root
    g_root = -(g_normed * centered).sum(axis=-1, keepdims=True) / root**2
    g_var = g_root / (2.0 * root)
    g_centered = g_centered + g_var * 2.0 * centered / c
    gx = g_centered - g_centered.sum(axis=-1, keepdims=True) / c
    return y, gx, g_gamma, g_beta


def _sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _fused_partials(op, inputs, g):
    """Output of ``op(*inputs)`` and its VJP at upstream ``g``, checking that
    the call records exactly one node."""
    with GradTape(inputs) as tape:
        y = op(*inputs)
    (node,) = tape.nodes
    return y.data, node._vjp(g)


class TestFusedOps:
    """layer_norm, star_relu, feed_forward, pointwise_depthwise and
    cross_entropy each record one node whose closed-form VJP matches the
    composed maths."""

    @pytest.mark.parametrize("shape", [(1, 56, 56, 64), (2, 8, 8, 8)])
    def test_feed_forward_is_bit_identical_to_the_composed_ffn(self, rng, shape):
        # The composed graph is the block's second norm, then the FFN.  The
        # VJP runs the 56 x 56 map in several blocks of rows and sums the
        # weight partials over them; the 8 x 8 maps run as one block.
        c = shape[-1]
        arrays = [
            rng.normal(size=shape) * 2.0 + 0.5,
            1.0 + 0.1 * rng.normal(size=c),
            0.1 * rng.normal(size=c),
            rng.normal(size=(c, 4 * c)) / np.sqrt(c),
            rng.normal(size=4 * c) * 0.1,
            np.float64(2.0 / np.sqrt(5.0)),
            np.float64(-1.0 / np.sqrt(5.0)),
            rng.normal(size=(4 * c, c)) / np.sqrt(4 * c),
            rng.normal(size=c) * 0.1,
        ]
        g = rng.normal(size=shape)
        op = lambda x, ga, be, *t: nx.feed_forward(x, ga, be, 1e-6, *t)
        y, partials = _fused_partials(op, [Tensor(a) for a in arrays], g)
        x, ga, be, w1, b1, s, b, w2, b2 = inputs = [Tensor(a) for a in arrays]
        with GradTape(inputs) as tape:
            ref = nx.linear(nx.star_relu(nx.linear(nx.layer_norm(x, ga, be, 1e-6), w1, b1), s, b), w2, b2)
        assert len(tape.nodes) == 6
        ref_partials = tape.gradient(ref, inputs, upstream=g)
        assert _sha256(y) == _sha256(ref.data)
        one_block = len(nx._blocks(int(np.prod(shape[:-1])), 16 * 4 * c)) == 1
        for i, (got, want) in enumerate(zip(partials, ref_partials)):
            assert got.shape == want.shape
            if one_block or i < 3:  # x, gamma and beta come from the whole x-partial
                assert _sha256(got) == _sha256(want.data), i
            else:
                assert np.abs(got - want.data).max() <= 1e-14 * np.abs(want.data).max(), i

    def test_feed_forward_never_holds_the_whole_hidden_layer(self, rng):
        # The stage-1 map of a 224 px model: its hidden layer is 3136 x 256
        # floats (6.4 MB), and the forward pass peaked at 8.0 MB when that
        # layer existed whole.
        x = Tensor(rng.normal(size=(1, 56, 56, 64)))
        g, be = Tensor(rng.normal(size=64)), Tensor(rng.normal(size=64))
        w1, b1 = Tensor(rng.normal(size=(64, 256))), Tensor(rng.normal(size=256))
        w2, b2 = Tensor(rng.normal(size=(256, 64))), Tensor(rng.normal(size=64))
        tracemalloc.start()
        try:
            nx.feed_forward(x, g, be, 1e-6, w1, b1, Tensor(1.3), Tensor(-0.2), w2, b2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3136 * 256 * 8

    @pytest.mark.parametrize("sources", ["x", "all"])
    def test_feed_forward_vjp_never_holds_the_whole_hidden_layer(self, rng, sources):
        # The same 6.4 MB hidden layer: the VJP holds a block of it at a time,
        # where it held three whole hidden-width arrays when it ran as one
        # block.  Its largest arrays are then the three map-sized ones of the
        # norm's partial (1.6 MB each).
        inputs = [Tensor(rng.normal(size=s)) for s in
                  [(1, 56, 56, 64), (64,), (64,), (64, 256), (256,), (), (), (256, 64), (64,)]]
        tracked = inputs[:1] if sources == "x" else inputs
        with GradTape(tracked) as tape:
            nx.feed_forward(*inputs[:3], 1e-6, *inputs[3:])
        (node,) = tape.nodes
        g = rng.normal(size=(1, 56, 56, 64))
        tracemalloc.start()
        try:
            partials = node._vjp(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(p is not None for p in partials) == len(tracked)
        assert peak < 3136 * 256 * 8

    @pytest.mark.parametrize("offsets,axes,shape", [
        ([(dy, dx) for dy in range(-2, 3) for dx in range(-2, 3)], (-3, -2), (2, 9, 7, 4)),
        ([(dy, dx) for dy in range(-3, 4) for dx in range(-3, 4)], (-3, -2), (1, 8, 8, 8)),
        ([(-1,), (0,), (1,)], (-2,), (2, 13, 6)),
        ([(0,), (1,), (2,)], (-2,), (11, 3)),
    ])
    def test_pointwise_depthwise_is_bit_identical_to_the_composed_graph(self, rng, offsets, axes, shape):
        c = shape[-1]
        w = 3 * c
        arrays = [
            rng.normal(size=shape),
            rng.normal(size=(c, w)) / np.sqrt(c),
            rng.normal(size=w) * 0.1,
            rng.normal(size=(len(offsets), w)) * 0.2,
            rng.normal(size=w) * 0.1,
        ]
        g = rng.normal(size=shape[:-1] + (w,))
        op = lambda *t: nx.pointwise_depthwise(*t, offsets, axes)
        y, partials = _fused_partials(op, [Tensor(a) for a in arrays], g)
        x, pw, pb, dw, db = inputs = [Tensor(a) for a in arrays]
        with GradTape(inputs) as tape:
            ref = nx.add(nx.shift_convolve(nx.linear(x, pw, pb), dw, offsets, axes), db)
        assert len(tape.nodes) == 4
        ref_partials = tape.gradient(ref, inputs, upstream=g)
        assert _sha256(y) == _sha256(ref.data)
        for got, want in zip(partials, ref_partials):
            assert got.shape == want.shape and _sha256(got) == _sha256(want.data)

    @pytest.mark.parametrize("shapes,match", [
        ([(2, 5, 4), (5, 12), (12,), (3, 12), (12,)], r"x of shape \(2, 5, 4\) does not end in pw's K = 5"),
        ([(2, 5, 4), (4, 12), (1, 12), (3, 12), (12,)], r"pb must have shape \(12,\)"),
        ([(2, 5, 4), (4, 12), (12,), (3, 12), (4,)], r"db must have shape \(12,\)"),
        ([(2, 5, 4), (4, 12), (12,), (2, 12), (12,)], r"offset count must match tap count"),
    ])
    def test_pointwise_depthwise_shapes_named(self, rng, shapes, match):
        with pytest.raises(ValueError, match=match):
            nx.pointwise_depthwise(*[Tensor(rng.normal(size=s)) for s in shapes], [(-1,), (0,), (1,)], (-2,))

    @pytest.mark.parametrize("shapes,match", [
        ([(2, 4), (5, 16), (16,), (), (), (16, 4), (4,)], r"x of shape \(2, 4\) does not end in w1's K = 5"),
        ([(2, 4), (4, 16), (16,), (), (), (8, 4), (4,)], r"hidden layer of shape \(2, 16\) does not end in w2's K = 8"),
        ([(2, 4), (4,), (16,), (), (), (16, 4), (4,)], r"expects w1 of shape \[K, M\]"),
        ([(2, 4), (4, 16), (1, 16), (), (), (16, 4), (4,)], r"b1 must have shape \(16,\)"),
        ([(2, 4), (4, 16), (16,), (), (), (16, 4), (3,)], r"b2 must have shape \(4,\)"),
        ([(2, 4), (4, 16), (16,), (3,), (), (16, 4), (4,)], r"scale of shape \(3,\) does not broadcast"),
    ])
    def test_feed_forward_shapes_named(self, rng, shapes, match):
        x, *params = [Tensor(rng.normal(size=s)) for s in shapes]
        norm = [Tensor(np.ones(x.shape[-1])), Tensor(np.zeros(x.shape[-1]))]
        with pytest.raises(ValueError, match=match):
            nx.feed_forward(x, *norm, 1e-6, *params)

    @pytest.mark.parametrize("gamma_shape,beta_shape,match", [
        ((5,), (4,), r"feed_forward: gamma must have shape \(4,\) for C = 4"),
        ((4,), (), r"feed_forward: beta must have shape \(4,\) for C = 4"),
    ])
    def test_feed_forward_norm_parameter_shapes_named(self, rng, gamma_shape, beta_shape, match):
        shapes = [(2, 4), gamma_shape, beta_shape, (4, 16), (16,), (), (), (16, 4), (4,)]
        x, gamma, beta, *params = [Tensor(rng.normal(size=s)) for s in shapes]
        with pytest.raises(ValueError, match=match):
            nx.feed_forward(x, gamma, beta, 1e-6, *params)

    def test_layer_norm_matches_reference(self, rng):
        x = rng.normal(size=(2, 3, 4, 6)) * 2.0 + 0.5
        gamma, beta, g = rng.normal(size=6), rng.normal(size=6), rng.normal(size=(2, 3, 4, 6))
        inputs = [Tensor(x), Tensor(gamma), Tensor(beta)]
        y, partials = _fused_partials(lambda a, b, c: nx.layer_norm(a, b, c, 1e-6), inputs, g)
        ref = _layer_norm_reference(x, gamma, beta, 1e-6, g)
        for got, want in zip((y,) + partials, ref):
            assert got.shape == want.shape and np.abs(got - want).max() < 1e-12

    def test_star_relu_matches_reference(self, rng):
        x, g = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
        s, b = 1.3, -0.4
        y, (gx, gs, gb) = _fused_partials(nx.star_relu, [Tensor(x), Tensor(s), Tensor(b)], g)
        pos = np.where(x > 0, x, 0.0)
        assert np.abs(y - (s * pos**2 + b)).max() < 1e-12
        assert np.abs(gx - np.where(x > 0, 2.0 * s * x * g, 0.0)).max() < 1e-12
        assert gs.shape == () and abs(gs - (g * pos**2).sum()) < 1e-12
        assert gb.shape == () and abs(gb - g.sum()) < 1e-12

    def test_cross_entropy_matches_reference(self, rng):
        logits = rng.normal(size=(3, 4)) * 3.0
        log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        f = lambda z: nx.cross_entropy(z, SMOOTHED_TARGETS)
        loss, (gl,) = _fused_partials(f, [Tensor(logits)], 0.7)
        assert abs(loss + (SMOOTHED_TARGETS * log_probs).sum(axis=1).mean()) < 1e-12
        assert np.abs(gl - 0.7 * (np.exp(log_probs) - SMOOTHED_TARGETS) / 3).max() < 1e-12

    @pytest.mark.parametrize("name", ["layer_norm", "star_relu"])
    def test_parameters_outside_the_sources_get_no_partial(self, rng, name):
        f, shapes = PRUNED_OPS[name]
        x, *params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        with GradTape([x]) as tape:
            f(x, *params)
        (node,) = tape.nodes
        assert node.need == [True, False, False]
        gx, *rest = node._vjp(rng.normal(size=x.shape))
        assert gx.shape == x.shape and rest == [None, None]

    def test_layer_norm_constant_row_gives_beta(self, rng):
        x = rng.normal(size=(3, 5))
        x[1] = 1.75  # zero variance; its mean is exact
        gamma, beta = Tensor(rng.normal(size=5)), Tensor(rng.normal(size=5))
        src = Tensor(x)
        with GradTape([src, gamma, beta]) as tape:
            y = nx.layer_norm(src, gamma, beta, 1e-6)
        assert np.array_equal(y.data[1], beta.data)
        grads = tape.gradient(y, [src, gamma, beta], upstream=rng.normal(size=(3, 5)))
        assert all(np.all(np.isfinite(t.data)) for t in grads)

    def test_star_relu_x_gradient_is_zero_at_zero(self):
        x = Tensor([-1.0, 0.0, 0.0, 2.0])
        with GradTape([x]) as tape:
            y = nx.star_relu(x, Tensor(1.3), Tensor(0.2))
        (gx,) = tape.gradient(y, [x], upstream=np.ones(4))
        assert np.array_equal(gx.data, [0.0, 0.0, 0.0, 2.0 * 1.3 * 2.0])

    @pytest.mark.parametrize("gamma_shape,beta_shape,match", [
        ((5,), (5,), r"gamma must have shape \(4,\) for C = 4"),
        ((), (4,), r"gamma must have shape \(4,\) for C = 4"),
        ((4,), (1, 4), r"beta must have shape \(4,\) for C = 4"),
    ])
    def test_layer_norm_parameter_shapes_named(self, rng, gamma_shape, beta_shape, match):
        x = Tensor(rng.normal(size=(2, 4)))
        gamma, beta = Tensor(rng.normal(size=gamma_shape)), Tensor(rng.normal(size=beta_shape))
        with pytest.raises(ValueError, match=match):
            nx.layer_norm(x, gamma, beta, 1e-6)

    @pytest.mark.parametrize("scale_shape,shift_shape,match", [
        ((3,), (), r"scale of shape \(3,\) does not broadcast to x's shape \(2, 4\)"),
        ((), (1, 2, 4), r"shift of shape \(1, 2, 4\) does not broadcast"),
    ])
    def test_star_relu_parameter_shapes_named(self, rng, scale_shape, shift_shape, match):
        x = Tensor(rng.normal(size=(2, 4)))
        scale, shift = Tensor(rng.normal(size=scale_shape)), Tensor(rng.normal(size=shift_shape))
        with pytest.raises(ValueError, match=match):
            nx.star_relu(x, scale, shift)

    def test_star_relu_partials_with_channel_parameters(self, rng):
        x, g = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        s, b = rng.normal(size=4), rng.normal(size=(1, 4))
        y, (gx, gs, gb) = _fused_partials(nx.star_relu, [Tensor(x), Tensor(s), Tensor(b)], g)
        pos = np.where(x > 0, x, 0.0)
        assert np.abs(y - (s * pos**2 + b)).max() < 1e-12
        assert np.abs(gx - 2.0 * s * pos * g).max() < 1e-12
        assert np.abs(gs - (g * pos**2).sum(axis=0)).max() < 1e-12
        assert gb.shape == (1, 4) and np.abs(gb - g.sum(axis=0)).max() < 1e-12

    def test_cross_entropy_shapes_must_agree(self, rng):
        with pytest.raises(ValueError, match="logits and targets alike"):
            nx.cross_entropy(Tensor(rng.normal(size=(3, 4))), SMOOTHED_TARGETS[:2])


def _log_vjp_calls(tape, log):
    for node in tape.nodes:
        node._vjp = (lambda vjp, op: lambda g: log.append(op) or vjp(g))(node._vjp, node.op)


class TestSourcePruning:
    @pytest.mark.parametrize("name", sorted(PRUNED_OPS))
    def test_weight_partial_skipped_when_not_a_source(self, rng, name):
        # Every input is trainable, but only x is asked for.
        f, shapes = PRUNED_OPS[name]
        inputs = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        with GradTape() as tape:
            y = f(*inputs)
        upstream = rng.normal(size=y.shape)
        (node,) = tape.nodes
        returned = []
        vjp = node._vjp
        node._vjp = lambda g: returned.append(vjp(g)) or returned[-1]
        (gx,) = tape.gradient(y, inputs[:1], upstream=upstream)
        (partials,) = returned
        assert partials[0] is not None and all(p is None for p in partials[1:])
        with GradTape() as tape:
            y = f(*inputs)
        full = tape.gradient(y, inputs, upstream=upstream)
        assert np.array_equal(gx.data, full[0].data)

    def test_untracked_source_gets_zero_and_skips_its_branch(self, rng):
        x = Tensor(rng.normal(size=4), requires_grad=True)
        w = Tensor(rng.normal(size=4), requires_grad=True)
        z = Tensor(rng.normal(size=4))
        with GradTape() as tape:
            y = nx.tensor_sum(nx.add(nx.mul(x, z), nx.exp(w)))
        ops = []
        _log_vjp_calls(tape, ops)
        gx, gz = tape.gradient(y, [x, z])
        assert np.array_equal(gx.data, z.data) and np.array_equal(gz.data, np.zeros(4))
        assert "exp" not in ops

    def test_intermediate_source_stops_the_sweep(self, rng):
        x = Tensor(rng.normal(size=4), requires_grad=True)
        with GradTape() as tape:
            a = nx.square(x)
            y = nx.tensor_sum(nx.mul(a, 3.0))
        ops = []
        _log_vjp_calls(tape, ops)
        (ga,) = tape.gradient(y, [a])
        assert np.array_equal(ga.data, np.full(4, 3.0))
        assert ops == ["sum", "mul"]

    def test_dead_gradient_freed_before_earlier_vjps(self, rng):
        # The gradient reaching sin's output is dead once sin's VJP has run.
        x = Tensor(rng.normal(size=4), requires_grad=True)
        with GradTape() as tape:
            y = nx.tensor_sum(nx.sin(nx.exp(x)))
        exp_node, sin_node, _ = tape.nodes
        seen, alive = [], []
        sin_vjp, exp_vjp = sin_node._vjp, exp_node._vjp
        sin_node._vjp = lambda g: seen.append(weakref.ref(g)) or sin_vjp(g)
        exp_node._vjp = lambda g: alive.append(seen[0]() is not None) or exp_vjp(g)
        (gx,) = tape.gradient(y, [x])
        assert alive == [False]
        assert np.array_equal(gx.data, np.cos(np.exp(x.data)) * np.exp(x.data))

    def test_partial_added_to_an_earlier_one_freed_before_the_next_vjp(self, rng):
        # mul's partial for u joins add's in a new sum; neither it nor the
        # sum it replaced is kept alive through neg's VJP.
        x, c = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))
        with GradTape([x]) as tape:
            u = nx.neg(x)
            y = nx.tensor_sum(nx.add(u, nx.mul(u, c)))
        neg_node, mul_node = tape.nodes[:2]
        seen, alive = [], []
        mul_vjp, neg_vjp = mul_node._vjp, neg_node._vjp
        mul_node._vjp = lambda g: (lambda p: seen.append(weakref.ref(p[0])) or p)(mul_vjp(g))
        neg_node._vjp = lambda g: alive.append(seen[0]() is not None) or neg_vjp(g)
        (gx,) = tape.gradient(y, [x])
        assert alive == [False]
        assert np.array_equal(gx.data, -(1.0 + c.data))


class TestSourcedTape:
    def test_trainable_tensor_outside_sources_records_nothing(self, rng):
        x = Tensor(rng.normal(size=4))
        w = Tensor(rng.normal(size=4), requires_grad=True)
        with GradTape([x]) as tape:
            e = nx.exp(w)  # w alone: untracked, so not recorded
            y = nx.tensor_sum(nx.mul(x, e))
        assert [n.op for n in tape.nodes] == ["mul", "sum"]
        assert all(w.key not in n.inputs for n in tape.nodes)
        gx, gw = tape.gradient(y, [x, w])
        assert np.array_equal(gx.data, e.data)
        assert np.array_equal(gw.data, np.zeros(4))

    def test_matches_requires_grad_tape(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        f = lambda: nx.tensor_sum(nx.square(nx.matmul(nx.sin(x), w)))
        with GradTape() as tape:
            y = f()
        ref = tape.gradient(y, [x])
        with GradTape([x]) as tape:
            y = f()
        assert [n.op for n in tape.nodes] == ["sin", "matmul", "square", "sum"]
        assert np.array_equal(tape.gradient(y, [x])[0].data, ref[0].data)


def _star_relu_off_kink(a, s, b):
    # Every input lies within 0.1 * |a| of -1 or +1, far from the kink at 0.
    x = nx.add(nx.mul(a, 0.1), np.repeat([-1.0, 1.0], 3))
    return nx.tensor_sum(nx.square(nx.star_relu(x, s, b)))


class TestGradCheck:
    def test_leaves_requires_grad_flags(self, rng):
        a = Tensor(rng.normal(size=3))
        b = Tensor(rng.normal(size=3), requires_grad=True)
        assert grad_check(lambda p, q: nx.tensor_sum(nx.mul(p, q)), [a, b]) < 1e-8
        assert (a.requires_grad, b.requires_grad) == (False, True)

    def test_quadratic_is_machine_exact(self, rng):
        err = grad_check(lambda x: nx.tensor_sum(nx.square(x)), [Tensor(rng.normal(size=20))])
        assert err < 1e-8

    def test_requires_scalar(self, rng):
        with pytest.raises(ValueError):
            grad_check(lambda x: nx.square(x), [Tensor(rng.normal(size=3))])

    def test_eps_validation(self, rng):
        with pytest.raises(ValueError):
            grad_check(lambda x: nx.tensor_sum(x), [Tensor(rng.normal(size=3))], eps=0.5)

    @pytest.mark.parametrize(
        "name,f,shapes",
        [
            ("add", lambda a, b: nx.tensor_sum(nx.square(nx.add(a, b))), [(4, 3), (3,)]),
            ("layer_norm", lambda a, g, b: nx.tensor_sum(nx.square(nx.layer_norm(a, g, b, 1e-6))),
             [(4, 6), (6,), (6,)]),
            ("mul", lambda a, b: nx.tensor_sum(nx.mul(a, b)), [(5,), (5,)]),
            ("layer_norm_nhwc", lambda a, g, b: nx.tensor_sum(nx.square(nx.layer_norm(a, g, b, 1e-6))),
             [(1, 3, 2, 5), (5,), (5,)]),
            ("exp", lambda a: nx.tensor_sum(nx.exp(a)), [(6,)]),
            ("cross_entropy", lambda a: nx.cross_entropy(a, SMOOTHED_TARGETS), [(3, 4)]),
            ("sin", lambda a: nx.tensor_sum(nx.sin(a)), [(6,)]),
            ("star_relu", lambda a, s, b: _star_relu_off_kink(a, s, b), [(6,), (), ()]),
            ("matmul", lambda a, b: nx.tensor_sum(nx.square(nx.matmul(a, b))), [(3, 4), (4, 2)]),
            ("mean", lambda a: nx.mean(nx.square(a)), [(4, 5)]),
            ("sum_axis", lambda a: nx.tensor_sum(nx.square(nx.tensor_sum(a, axis=0))), [(3, 4)]),
            ("reshape", lambda a: nx.tensor_sum(nx.square(nx.reshape(a, (6,)))), [(2, 3)]),
            ("pad", lambda a: nx.tensor_sum(nx.square(nx.pad(a, [(1, 2)]))), [(5,)]),
            ("crop", lambda a: nx.tensor_sum(nx.square(nx.crop(a, [slice(1, 4)]))), [(6,)]),
            ("circular_convolve_unpadded",
             lambda a, b: nx.tensor_sum(nx.square(circular_convolve(a, b, dims=[0]))), [(5, 2), (9, 2)]),
            ("feed_forward",
             lambda x, g, b, *t: nx.tensor_sum(nx.square(nx.feed_forward(x, g, b, 1e-6, *t))),
             [(2, 3), (3,), (3,), (3, 8), (8,), (), (), (8, 2), (2,)]),
            ("pointwise_depthwise",
             lambda *t: nx.tensor_sum(nx.square(nx.pointwise_depthwise(*t, [(-1,), (0,), (1,)], (-2,)))),
             [(5, 2), (2, 6), (6,), (3, 6), (6,)]),
        ],
    )
    def test_primitive_gradients(self, rng, name, f, shapes):
        inputs = [Tensor(rng.normal(size=s)) for s in shapes]
        assert grad_check(f, inputs) < 1e-5, name

    def test_conv_gradients(self, rng):
        f = lambda a, b: nx.tensor_sum(nx.square(circular_convolve(a, b, dims=[0])))
        assert grad_check(f, [Tensor(rng.normal(size=9)), Tensor(rng.normal(size=9))]) < 1e-5
        offs = [(-1,), (0,), (1,)]
        f3 = lambda a, w: nx.tensor_sum(nx.square(nx.shift_convolve(a, w, offs, (-2,))))
        assert grad_check(f3, [Tensor(rng.normal(size=(6, 2))), Tensor(rng.normal(size=(3, 2)))]) < 1e-5

    def test_strided_conv_gradient(self, rng):
        x = Tensor(rng.normal(size=(1, 8, 8, 2)))
        w = Tensor(rng.normal(size=(3, 3, 2, 4)))
        b = Tensor(rng.normal(size=4))
        f = lambda xx, ww, bb: nx.tensor_sum(nx.square(nx.strided_conv2d(xx, ww, bb, 2, 1)))
        assert grad_check(f, [x, w, b]) < 1e-5

    def test_subsampling_above_threshold_is_seeded(self, rng):
        x = Tensor(rng.normal(size=30))
        f = lambda a: nx.tensor_sum(nx.square(a))
        e1 = grad_check(f, [x], max_coords=10)
        e2 = grad_check(f, [x], max_coords=10)
        assert e1 == e2


# Public functions of the package that the package itself never calls.
UNCALLED_BY_PACKAGE = {
    "numerics.grad_check": "the gradient checker of the test suite and of criterion 3",
    "numerics.square": "the objective of criterion 3 and of about 40 other gradient checks",
}

REPO = Path(nx.__file__).resolve().parents[2]


def _definitions() -> set[str]:
    """``module.function`` and ``module.Class.method`` for every module-level
    function and every method but a dunder, private ones included."""
    found = set()
    for path in Path(nx.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                found.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                found |= {
                    f"{path.stem}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                }
    return found


def _names_the_package_reads() -> set[str]:
    """Every name loaded or attribute read in ``src/fftmix``, ``demos`` and
    the benchmark harness (not its tests); a definition or a re-export in
    ``__init__`` is not a read."""
    paths = [*Path(nx.__file__).parent.glob("*.py"), *(REPO / "demos").glob("*.py")]
    paths += [p for p in (REPO / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
    return used


def test_every_public_primitive_has_a_caller_in_the_package():
    # Private helpers too: one that loses its last caller is dead code.
    defined = _definitions()
    public = {name for name in defined if not any(part.startswith("_") for part in name.split(".")[1:])}
    assert set(UNCALLED_BY_PACKAGE) <= public
    used = _names_the_package_reads()
    uncalled = {name for name in defined if name.rsplit(".", 1)[-1] not in used}
    uncalled -= set(UNCALLED_BY_PACKAGE)
    assert not uncalled, f"functions and methods without a caller: {sorted(uncalled)}"
