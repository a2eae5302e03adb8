import ast
import copy
import hashlib
import importlib
import json
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

from fftmix import analysis, cli, hpxio
from fftmix import model as mdl
from fftmix import numerics as nx
from fftmix.numerics import GradTape, Tensor, circular_convolve, grad_check


def centred_direct(x: np.ndarray, h: np.ndarray, nconv: int) -> np.ndarray:
    """y[i] = sum_s x[s] * h[i - s + L - 1] over the leading ``nconv`` axes,
    ``h`` having 2L-1 taps on each; trailing axes broadcast."""
    size = x.shape[:nconv]
    y = np.zeros(np.broadcast_shapes(x.shape, size + h.shape[nconv:]))
    for s in np.ndindex(size):
        y += x[s] * h[tuple(slice(n - 1 - a, 2 * n - 1 - a) for n, a in zip(size, s))]
    return y


class TestCircularConvolve:
    """The centred convolution of an L-long x with a kernel of 2L-1 taps."""

    def test_impulses(self, rng):
        # A centre impulse returns x; an impulse x returns the taps for
        # offsets 0 .. L-1.
        x = rng.normal(size=4)
        y = circular_convolve(Tensor(x), Tensor([0.0, 0, 0, 1, 0, 0, 0]), dims=[0])
        assert np.allclose(y.data, x, atol=1e-13)
        y = circular_convolve(Tensor([1.0, 0, 0, 0]), Tensor([1.0, 2, 3, 4, 5, 6, 7]), dims=[0])
        assert np.allclose(y.data, [4, 5, 6, 7], atol=1e-13)

    def test_all_ones(self):
        # Every output sums all L inputs.
        y = circular_convolve(Tensor([1.0, 1, 1, 1]), Tensor(np.ones(7)), dims=[0])
        assert np.allclose(y.data, 4.0, atol=1e-13)

    def test_random_1d_vs_direct(self, rng):
        x, h = rng.normal(size=64), rng.normal(size=127)
        y = circular_convolve(Tensor(x), Tensor(h), dims=[0]).data
        assert np.abs(y - centred_direct(x, h, 1)).max() < 1e-10

    def test_random_2d_vs_direct(self, rng):
        x, h = rng.normal(size=(9, 13)), rng.normal(size=(17, 25))
        y = circular_convolve(Tensor(x), Tensor(h), dims=[0, 1]).data
        assert np.abs(y - centred_direct(x, h, 2)).max() < 1e-10

    @pytest.mark.parametrize("n", [56, 3136])
    def test_paper_lengths_vs_direct(self, rng, n):
        # The stage kernels' 111 and 6271 taps (6271 is prime).
        x, h = rng.normal(size=n), rng.normal(size=2 * n - 1)
        y = circular_convolve(Tensor(x), Tensor(h), dims=[0]).data
        assert np.abs(y - centred_direct(x, h, 1)).max() < 1e-9

    def test_linear(self, rng):
        x, z, h = rng.normal(size=17), rng.normal(size=17), rng.normal(size=33)
        a, b = 1.7, -0.3
        lhs = circular_convolve(Tensor(a * x + b * z), Tensor(h), dims=[0]).data
        rhs = a * circular_convolve(Tensor(x), Tensor(h), dims=[0]).data
        rhs = rhs + b * circular_convolve(Tensor(z), Tensor(h), dims=[0]).data
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_batch_broadcasting(self, rng):
        x = rng.normal(size=(5, 12, 3))
        h = rng.normal(size=(23, 3))
        y = circular_convolve(Tensor(x), Tensor(h), dims=[-2]).data
        for b in range(5):
            for c in range(3):
                ref = centred_direct(x[b, :, c], h[:, c], 1)
                assert np.abs(y[b, :, c] - ref).max() < 1e-10

    @pytest.mark.parametrize("spectral", [False, True])
    def test_length_mismatch_error(self, rng, spectral):
        # Only 2L-1 taps are centred: shorter kernels, L taps, smooth
        # lengths and longer kernels are named errors on the axis they miss.
        for taps in (7, 8, 14, 16, 30):
            kernel = _kernel_or_spectrum(rng.normal(size=(taps, 2)), [0], spectral)
            with pytest.raises(ValueError, match=rf"^convolved axis 0: x has length L = 8, so h needs 2L-1 = 15 taps, got {taps}$"):
                circular_convolve(Tensor(rng.normal(size=(8, 2))), kernel, dims=[0])
        kernel = _kernel_or_spectrum(rng.normal(size=(9, 12, 2)), [0, 1], spectral)
        with pytest.raises(ValueError, match="convolved axis 2: x has length L = 6, so h needs 2L-1 = 11 taps, got 12"):
            circular_convolve(Tensor(rng.normal(size=(3, 5, 6, 2))), kernel, dims=[1, 2])

    def test_kernel_spectrum_in_place_of_kernel(self, rng):
        x, h = rng.normal(size=(2, 9, 13, 3)), rng.normal(size=(17, 25, 3))
        ref = circular_convolve(Tensor(x), Tensor(h), dims=[-3, -2]).data
        spectrum = nx.kernel_spectrum(Tensor(h), [-3, -2])
        # 17 taps are transformed at M = 18, front-padded; 25 is smooth.
        assert spectrum.data.shape == (18, 13, 3) and spectrum.shape == (17, 25, 3)
        y = circular_convolve(Tensor(x), spectrum, dims=[-3, -2]).data
        assert np.array_equal(y, ref)
        with pytest.raises(ValueError, match="needs 2L-1 = 23 taps, got 25"):
            circular_convolve(Tensor(x[:, :, :12]), spectrum, dims=[-3, -2])
        with pytest.raises(ValueError, match="taken over axes"):
            circular_convolve(Tensor(rng.normal(size=(2, 13, 3))), spectrum, dims=[-2])
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


def centred_x_partial(h: np.ndarray, g: np.ndarray, nconv: int) -> np.ndarray:
    """dsum(g * y) / dx[s] = sum_i g[i] * h[i - s + L - 1]: the centred sum of
    g with h reversed on the convolved axes."""
    return centred_direct(g, np.flip(h, axis=tuple(range(nconv))), nconv)


class TestUnpaddedInput:
    """``circular_convolve`` takes x unpadded and its 2L-1-tap kernel as it
    is, whether the kernel is given or its spectrum: the transform zero-pads
    x at its end to M and the output keeps the last L of the M outputs."""

    @pytest.mark.parametrize("spectral", [False, True])
    def test_1d_vs_direct(self, rng, spectral):
        x, h = rng.normal(size=(5, 3)), rng.normal(size=(9, 3))
        y = circular_convolve(Tensor(x), _kernel_or_spectrum(h, [0], spectral), dims=[0]).data
        assert y.shape == x.shape
        assert np.abs(y - centred_direct(x, h, 1)).max() < 1e-10

    @pytest.mark.parametrize("spectral", [False, True])
    def test_2d_vs_direct(self, rng, spectral):
        x, h = rng.normal(size=(2, 4, 6, 2)), rng.normal(size=(7, 11, 2))
        y = circular_convolve(Tensor(x), _kernel_or_spectrum(h, [-3, -2], spectral), dims=[-3, -2]).data
        assert y.shape == x.shape
        for b in range(2):
            assert np.abs(y[b] - centred_direct(x[b], h, 2)).max() < 1e-10

    def test_centered_window_is_the_direct_sum(self, rng):
        # 2L-1 = 11 is transformed at M = 12, with one zero at the kernel's front.
        n = 6
        x, k = rng.normal(size=n), rng.normal(size=2 * n - 1)
        y = circular_convolve(Tensor(x), Tensor(k), dims=[0]).data
        ref = [sum(x[s] * k[i - s + n - 1] for s in range(n)) for i in range(n)]
        assert np.abs(y - ref).max() < 1e-12

    @pytest.mark.parametrize("spectral", [False, True])
    def test_output_owns_its_buffer(self, rng, spectral):
        x, h = Tensor(rng.normal(size=(1, 5, 7, 2))), rng.normal(size=(9, 13, 2))
        y = circular_convolve(x, _kernel_or_spectrum(h, [-3, -2], spectral), dims=[-3, -2])
        assert y.data.base is None and y.data.flags.owndata

    @pytest.mark.parametrize("spectral", [False, True])
    @pytest.mark.parametrize("size", [5, 6, 14])
    def test_x_partial_is_the_direct_correlation(self, rng, spectral, size):
        # M = 2L - 1 at L = 5 and 14, where the partial's window wraps, and
        # M = 12 > 2L - 1 at L = 6.
        x, h, g = rng.normal(size=(size, 2)), rng.normal(size=(2 * size - 1, 2)), rng.normal(size=(size, 2))
        xt = Tensor(x)
        with GradTape([xt]) as tape:
            y = circular_convolve(xt, _kernel_or_spectrum(h, [0], spectral), dims=[0])
        (gx,) = tape.gradient(y, [xt], upstream=g)
        assert np.abs(gx.data - centred_x_partial(h, g, 1)).max() < 1e-12

    def test_x_broadcasts_against_h(self, rng):
        # x has one channel and h three: the product is wider than x's spectrum.
        x, h = rng.normal(size=(4, 1)), rng.normal(size=(7, 3))
        y = circular_convolve(Tensor(x), Tensor(h), dims=[0]).data
        assert np.abs(y - centred_direct(x, h, 1)).max() < 1e-10
        f = lambda a, b: nx.tensor_sum(nx.square(circular_convolve(a, b, dims=[0])))
        assert grad_check(f, [Tensor(x), Tensor(h)]) < 1e-5

    def test_spectral_gradient(self, rng):
        spectrum = nx.kernel_spectrum(Tensor(rng.normal(size=(9, 2))), [0])
        f = lambda a: nx.tensor_sum(nx.square(circular_convolve(a, spectrum, dims=[0])))
        assert grad_check(f, [Tensor(rng.normal(size=(5, 2)))]) < 1e-5

    @pytest.mark.parametrize("spectral", [False, True])
    def test_inverse_writes_into_the_product(self, rng, spectral):
        # A 2D pass at M = 32 holds the spectra (the kernel's as well unless
        # it is given as one) and its output, no third M-sized array for the
        # inverse transform to write.
        x = Tensor(rng.normal(size=(1, 16, 16, 32)))
        kernel = _kernel_or_spectrum(rng.normal(size=(31, 31, 32)), [-3, -2], spectral)
        spectrum_bytes = 32 * 17 * 32 * 16
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
        x, h, g = rng.normal(size=(3, 6, 4)).T, rng.normal(size=(7, 11, 3)), rng.normal(size=(4, 6, 3))
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
            got = np.empty((size,) * len(axes) + (3,))
            nx._pruned_irfftn(f.copy(), lengths, axes, (start,) * len(axes), (size,) * len(axes), got)
            assert np.array_equal(got, self.window(full, axes, start, size)), start

    @pytest.mark.parametrize("dims,size", [((0,), 14), ((0, 1), 5)])
    def test_wrapped_x_partial_is_the_direct_correlation(self, rng, dims, size):
        # M = 2L - 1 (27 and 9 are smooth): the x-partial's window wraps.
        # dy[i] / dx[s] is h[(M - L + i - s) mod M], summed against the
        # upstream gradient.
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
        # L = 16, M = 32: the upstream gradient is transformed zero-padded
        # inside numpy, never placed in an M x M array, and only the 16 rows
        # the partial reads are inverted over the last axis.
        x = Tensor(rng.normal(size=(1, 16, 16, 32)))
        spectrum = nx.kernel_spectrum(Tensor(rng.normal(size=(31, 31, 32))), [-3, -2])
        g = rng.normal(size=x.shape)
        with GradTape([x]) as tape:
            y = circular_convolve(x, spectrum, dims=[-3, -2])
        spectrum_bytes, square_bytes = 32 * 17 * 32 * 16, 32 * 32 * 32 * 8
        tracemalloc.start()
        try:
            (gx,) = tape.gradient(y, [x], upstream=g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The spectrum, the x-partial's window and the 16 kept rows over the
        # last axis (139 KB) fit; another M x M array (262 KB) does not.
        assert peak < spectrum_bytes + square_bytes
        assert gx.shape == x.shape


class TestKernelPartial:
    """The kernel partial is ``irfftn(sum(conj(X) * G))``: the correlation of
    the upstream gradient with x, summed over the batch on the spectrum, its
    2L-1 taps read from the M entries of the padded kernel's partial."""

    @staticmethod
    def direct(x: np.ndarray, g: np.ndarray, nconv: int) -> np.ndarray:
        # dy[i] / dh[k] is x[s] where k = i - s + L - 1 on each convolved
        # axis (axes 1 .. nconv of x and g, 0 .. nconv - 1 of h).
        size = x.shape[1 : 1 + nconv]
        ref = np.zeros(tuple(2 * n - 1 for n in size) + x.shape[1 + nconv :])
        for s in np.ndindex(size):
            for i in np.ndindex(size):
                tap = tuple(a - b + n - 1 for n, a, b in zip(size, i, s))
                ref[tap] += (x[(slice(None),) + s] * g[(slice(None),) + i]).sum(axis=0)
        return ref

    @pytest.mark.parametrize("size", [5, 6, 14])
    @pytest.mark.parametrize("dims", [(-2,), (-3, -2)])
    def test_equals_the_direct_correlation(self, rng, dims, size):
        # Batch 3; M = 2L - 1 at L = 5 and 14 (the window wraps) and
        # M = 12 > 2L - 1 at L = 6.
        nconv = len(dims)
        shape, hshape = (3,) + (size,) * nconv + (2,), (2 * size - 1,) * nconv + (2,)
        x, h, g = rng.normal(size=shape), rng.normal(size=hshape), rng.normal(size=shape)
        ht = Tensor(h)
        with GradTape([ht]) as tape:
            y = circular_convolve(Tensor(x), ht, dims=dims)
        (gh,) = tape.gradient(y, [ht], upstream=g)
        assert np.abs(gh.data - self.direct(x, g, nconv)).max() < 1e-12

    def test_kernel_broadcast_over_an_axis_is_summed(self, rng):
        # separable2d's vertical kernel (ky, 1, C) against [B, H, W, C]: the
        # partial sums over the batch and over W.
        x, h, g = rng.normal(size=(3, 5, 4, 2)), rng.normal(size=(9, 1, 2)), rng.normal(size=(3, 5, 4, 2))
        ht = Tensor(h)
        with GradTape([ht]) as tape:
            y = circular_convolve(Tensor(x), ht, dims=[-3])
        (gh,) = tape.gradient(y, [ht], upstream=g)
        assert gh.shape == h.shape
        assert np.abs(gh.data - self.direct(x, g, 1).sum(axis=1, keepdims=True)).max() < 1e-12
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
        # 120 channels of a 2 x 48 x 25 half spectrum (47 taps at M = 48):
        # 38 KB each, three blocks.
        x, h, g = rng.normal(size=(2, 24, 24, 120)), rng.normal(size=(47, 47, 120)), rng.normal(size=(2, 24, 24, 120))
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
        spectrum = nx.kernel_spectrum(Tensor(rng.normal(size=(111, 111, 64))), [-3, -2])
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
        arrays = [rng.normal(size=(2, 24, 24, 120)), rng.normal(size=(47, 47, 120))]
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
    return (lambda *t: nx.pointwise_depthwise(*t, offsets, axes)[0]), arrays, shape[:-1] + (3 * c,)


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

    def test_one_block_returns_its_own_terms_uncopied(self):
        terms = (np.ones(3), None, np.zeros((2, 2)))
        got = nx._over_blocks(lambda b: terms, [slice(None)])
        assert got is terms
        assert nx._over_blocks(lambda b: None, [slice(None)]) is None

    def test_several_blocks_sum_in_block_order_into_the_first_blocks_buffers(self, pool_submits):
        parts = [(np.array([v]), None) for v in (1.0, 2.0**53, -(2.0**53), 1.0)]
        first = parts[0][0]
        gw, none = nx._over_blocks(lambda i: parts[i], range(4))
        assert gw is first and none is None
        # ((1 + 2**53) + -2**53) + 1 rounds to 1; from the last block back it
        # would be 2.
        assert gw.tolist() == [1.0]
        assert pool_submits["blocks"] == 4

    def test_summed_terms_pooled_equal_serial_bitwise(self, rng, monkeypatch, pool_submits):
        a = rng.normal(size=(9, 64, 8))
        scale = 10.0 ** rng.integers(-8, 8, size=(9, 1, 8))

        def run():
            return [_sha256(t) for t in nx._over_blocks(lambda i: (a[i] * scale[i], a[i].T @ a[i]), range(9))]

        pooled = run()
        assert pool_submits["blocks"] == 9
        monkeypatch.setattr(nx, "_WORKERS", 1)
        assert run() == pooled
        assert pool_submits["blocks"] == 9

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


def strided_x_partial_loop(g, w, x_shape, stride, padding):
    """The x-partial of ``strided_conv2d`` as one strided add per tap, taps
    in (dy, dx) order, into the zero-padded input's gradient."""
    n, hh, ww, cin = x_shape
    k, cout = w.shape[0], w.shape[3]
    _, ho, wo, _ = g.shape
    gcols = (g.reshape(-1, cout) @ w.reshape(-1, cout).T).reshape(n, ho, wo, k, k, cin)
    gxp = np.zeros((n, hh + 2 * padding, ww + 2 * padding, cin))
    for dy in range(k):
        for dx in range(k):
            gxp[:, dy : dy + stride * ho : stride, dx : dx + stride * wo : stride] += gcols[:, :, :, dy, dx]
    return gxp[:, padding : padding + hh, padding : padding + ww]


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

    @pytest.mark.parametrize(
        "shape,k,stride,padding",
        [
            ((1, 224, 224, 3), 7, 4, 2),  # the 224 px stem
            ((1, 56, 56, 8), 3, 2, 1),  # downsampling, 224 px stage 1 -> 2
            ((32, 32, 32, 3), 7, 4, 2),  # the micro stem
            ((32, 8, 8, 8), 3, 2, 1),
            ((32, 2, 2, 8), 3, 2, 1),
            ((2, 9, 13, 3), 5, 3, 1),  # k not a multiple of the stride, odd sides
            ((1, 11, 7, 2), 7, 4, 0),
        ],
    )
    def test_x_partial_is_the_tap_loop_bitwise(self, rng, shape, k, stride, padding):
        x, w, b = Tensor(rng.normal(size=shape)), Tensor(rng.normal(size=(k, k, shape[3], 4))), Tensor(np.zeros(4))
        with GradTape([x]) as tape:
            y = nx.strided_conv2d(x, w, b, stride, padding)
        g = rng.normal(size=y.shape)
        (gx,) = tape.gradient(y, [x], upstream=g)
        assert _sha256(gx.data) == _sha256(strided_x_partial_loop(g, w.data, shape, stride, padding))

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
    output of a ``mul`` by -1 of a [2, 16, 16, 32] x.  Every other operand is
    an untracked constant.  The spectral convolution row also checks that no
    32 x 32 array, at its transform length, outlives the call."""
    c, bias = Tensor(rng.normal(size=(2, 16, 16, 32))), Tensor(rng.normal(size=32))
    w = Tensor(rng.normal(size=(32, 8)))
    taps, offsets = Tensor(rng.normal(size=(9, 32))), [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
    cw, cb = Tensor(rng.normal(size=(3, 3, 32, 8))), Tensor(rng.normal(size=8))
    spectrum = nx.kernel_spectrum(Tensor(rng.normal(size=(31, 31, 32))), [-3, -2])
    return {
        "add": lambda t: nx.add(nx.mul(t, -1.0), bias),
        "crop": lambda t: nx.crop(nx.mul(t, -1.0), [slice(None), slice(0, 4)]),
        "reshape": lambda t: nx.reshape(nx.mul(t, -1.0), (2, 256, 32)),
        "mean": lambda t: nx.mean(nx.mul(t, -1.0), axis=(1, 2)),
        "mul": lambda t: nx.mul(nx.mul(t, -1.0), c),
        "matmul": lambda t: nx.matmul(nx.mul(t, -1.0), w),
        "shift_convolve": lambda t: nx.shift_convolve(nx.mul(t, -1.0), taps, offsets, (-3, -2)),
        "strided_conv2d": lambda t: nx.strided_conv2d(nx.mul(t, -1.0), cw, cb, 2, 1),
        "circular_convolve": lambda t: circular_convolve(nx.mul(t, -1.0), spectrum, dims=[-3, -2]),
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
        ffn = lambda t: nx.feed_forward(nx.mul(t, -1.0), g, be, 1e-6, w1, b1, s, b, w2, b2)
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
        op = lambda t: nx.pointwise_depthwise(nx.mul(t, -1.0), pw, pb, dw, db, offsets, (-3, -2))[0]
        # dw's partial recomputes the wide map: the tape keeps the negated
        # input (128 KB), not the 3x-wide map (384 KB) or its padded copy.
        retained = _retained_bytes(op, x, nodes=2, also=[dw])
        assert x.data.nbytes <= retained < x.data.nbytes + 8_000

    @pytest.mark.parametrize("offsets,axes,shape", [
        (_FIVE_BY_FIVE, (-3, -2), (1, 56, 56, 64)),  # hpx-s4's stage 1 at 224 px
        (_THREE_TAPS, (-2,), (1, 3136, 64)),  # hb-s4's
        (_FIVE_BY_FIVE, (-3, -2), (1, 7, 7, 512)),  # hpx-s4's stage 4: the halo is taller than a window step
    ])
    def test_pointwise_depthwise_transient_stays_within_its_outputs_and_the_budget(self, rng, offsets, axes, shape):
        # No W-wide map, padded or not: beside its q, k and v, the op holds
        # only the blocks in flight, each a window of padded rows, halo
        # included, and a chunk of scratch within its share of the budget.
        # At stage 1 it held a 5.5 MB padded map and a 4.8 MB product at
        # once before.  On top of the budget come the tap grid (38 KB at
        # stage 1, 307 KB at stage 4) and numpy's 64 KiB iterator buffer of
        # each ufunc call in flight that broadcasts a bias.
        c = shape[-1]
        args = [Tensor(rng.normal(size=s)) for s in [shape, (c, 3 * c), (3 * c,), (len(offsets), 3 * c), (3 * c,)]]
        nx.pointwise_depthwise(*args, offsets, axes, parts=3)  # the pool's threads start
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            parts = nx.pointwise_depthwise(*args, offsets, axes, parts=3)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        outputs = sum(p.data.nbytes for p in parts)
        assert outputs == 3 * args[0].data.nbytes
        grid = 8 * len(offsets) * 3 * c
        assert peak < outputs + nx._BLOCK_BYTES + grid + 200_000

    def test_circular_convolve_keeps_the_kernel_spectrum_or_x(self, rng):
        # An x-only tape keeps the kernel's spectrum at M = 32 (32 * 17 * 32
        # complex, 279 KB), not x (128 KB) or the padded kernel; an h-only
        # tape keeps x and no spectrum.
        x = Tensor(rng.normal(size=(2, 16, 16, 32)))
        h = Tensor(rng.normal(size=(31, 31, 32)))
        spectrum_bytes = 32 * 17 * 32 * 16
        x_only = _retained_bytes(lambda t: circular_convolve(nx.mul(t, -1.0), h, dims=[-3, -2]), x, nodes=2)
        assert spectrum_bytes <= x_only < spectrum_bytes + 8_000
        h_only = _retained_bytes(lambda t: circular_convolve(nx.mul(x, -1.0), t, dims=[-3, -2]), h)
        assert x.data.nbytes <= h_only < x.data.nbytes + 8_000

    def test_star_relu_keeps_nothing_but_its_output(self, rng):
        x = Tensor(rng.normal(size=(2, 16, 16, 32)))
        s, b = Tensor(1.3), Tensor(-0.2)
        assert _retained_bytes(lambda t: nx.star_relu(t, s, b), x) < 8_000

    @pytest.mark.parametrize("name", sorted(_ops_on_an_intermediate(np.random.default_rng(0))))
    def test_untracked_operands_partial_keeps_no_intermediate(self, rng, name):
        # The intermediate (128 KB) is freed with its Tensor unless the op's
        # VJP captured it: none of these partials reads it.
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
        h = Tensor(np.eye(11)[5])  # the centre tap
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

    @pytest.mark.parametrize("used", ["qkv", "k", "qv"])
    def test_multi_output_node_gets_one_cotangent_per_output(self, rng, used):
        # One cotangent per output, None for an output no gradient reached.
        x = Tensor(rng.normal(size=(5, 2)))
        params = [Tensor(rng.normal(size=s)) for s in [(2, 6), (6,), (3, 6), (6,)]]
        got = []
        with GradTape([x]) as tape:
            parts = dict(zip("qkv", nx.pointwise_depthwise(x, *params, _THREE_TAPS, (-2,), parts=3)))
            y = nx.tensor_sum(nx.square(parts[used[0]]))
            for name in used[1:]:
                y = nx.add(y, nx.tensor_sum(nx.square(parts[name])))
        node = tape.nodes[0]
        vjp = node._vjp
        handed = []
        node._vjp = lambda g: handed.append(g) or got.append(list(g)) or vjp(g)
        (gx,) = tape.gradient(y, [x])
        (cotangents,) = got
        assert handed == [[]]  # emptied once read, so the parts are freed before the partials allocate
        assert [name for name, g in zip("qkv", cotangents) if g is not None] == list(used)
        for name, g in zip("qkv", cotangents):
            if g is not None:
                assert np.array_equal(g, 2.0 * parts[name].data)
        assert np.abs(gx.data).max() > 0

    def test_multi_output_node_outputs_are_sources(self, rng):
        x = Tensor(rng.normal(size=(5, 2)))
        params = [Tensor(rng.normal(size=s)) for s in [(2, 6), (6,), (3, 6), (6,)]]
        with GradTape([x]) as tape:
            q, k, v = nx.pointwise_depthwise(x, *params, _THREE_TAPS, (-2,), parts=3)
            y = nx.tensor_sum(nx.mul(q, v))
        gq, gk, gv, gx = tape.gradient(y, [q, k, v, x])
        assert np.array_equal(gq.data, v.data) and np.array_equal(gv.data, q.data)
        assert np.array_equal(gk.data, np.zeros_like(k.data)) and np.abs(gx.data).max() > 0

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
        assert len({node.outputs for node in tape.nodes}) == len(tape.nodes)
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
        assert t.data.dtype == np.float64 and np.array_equal(t.data, np.asarray(value, dtype=np.float64))

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
    "circular_convolve": (lambda x, h: circular_convolve(x, h, dims=[0]), [(5, 2), (9, 2)]),
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


def _qkv_reference(x, pw, pb, dw, db, offsets, axes):
    """q, k and v as the composed graph gives them: the W-wide pointwise
    layer, depthwise taps and bias, then one crop per part."""
    wide = nx.add(nx.shift_convolve(nx.linear(x, pw, pb), dw, offsets, axes), db)
    c, lead = wide.shape[-1] // 3, [slice(None)] * (wide.ndim - 1)
    return [nx.crop(wide, lead + [slice(i * c, (i + 1) * c)]) for i in range(3)]


class TestFusedOps:
    """layer_norm, star_relu, feed_forward, pointwise_depthwise and
    cross_entropy each record one node whose closed-form VJP matches the
    composed maths."""

    @pytest.mark.parametrize(
        "shape,act_shape",
        [((1, 56, 56, 64), ()), ((2, 8, 8, 8), ()), ((1, 56, 56, 64), (256,))],
        ids=["shape0", "shape1", "shape0-act_per_channel"],
    )
    def test_feed_forward_is_bit_identical_to_the_composed_ffn(self, rng, shape, act_shape):
        # The composed graph is the block's second norm, then the FFN.  The
        # VJP runs the 56 x 56 map in several blocks of rows and sums the
        # weight partials over them; the 8 x 8 maps run as one block.  The
        # StarReLU scale and shift are scalars, as the model's are, or [H].
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
        if act_shape:
            arrays[5:7] = [a + 0.1 * rng.normal(size=act_shape) for a in arrays[5:7]]
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
        op = lambda *t: nx.pointwise_depthwise(*t, offsets, axes)[0]
        y, partials = _fused_partials(op, [Tensor(a) for a in arrays], g)
        x, pw, pb, dw, db = inputs = [Tensor(a) for a in arrays]
        with GradTape(inputs) as tape:
            ref = nx.add(nx.shift_convolve(nx.linear(x, pw, pb), dw, offsets, axes), db)
        assert len(tape.nodes) == 4
        ref_partials = tape.gradient(ref, inputs, upstream=g)
        assert _sha256(y) == _sha256(ref.data)
        for got, want in zip(partials, ref_partials):
            assert got.shape == want.shape and _sha256(got) == _sha256(want.data)

    @pytest.mark.parametrize("offsets,axes,shape,several", [
        (_FIVE_BY_FIVE, (-3, -2), (2, 9, 7, 4), False),
        ([(0,), (1,), (2,)], (-2,), (11, 3), False),
        (_FIVE_BY_FIVE, (-3, -2), (32, 8, 8, 8), False),  # a micro model's stage 1
        (_FIVE_BY_FIVE, (-3, -2), (1, 40, 40, 32), True),
        (_THREE_TAPS, (-2,), (2, 3000, 8), True),
    ])
    @pytest.mark.parametrize("cotangents", ["qkv", "k"])
    def test_pointwise_depthwise_parts_are_the_composed_graph_cropped(
        self, rng, monkeypatch, offsets, axes, shape, several, cotangents
    ):
        # One node writes q, k and v; the reference is the W-wide composed
        # graph and a crop per part.  A part with no cotangent gets None.
        c = shape[-1]
        arrays = [
            rng.normal(size=shape),
            rng.normal(size=(c, 3 * c)) / np.sqrt(c),
            rng.normal(size=3 * c) * 0.1,
            rng.normal(size=(len(offsets), 3 * c)) * 0.2,
            rng.normal(size=3 * c) * 0.1,
        ]
        gs = [rng.normal(size=shape) if part in cotangents else None for part in "qkv"]
        cuts = []
        over_blocks = nx._over_blocks
        monkeypatch.setattr(nx, "_over_blocks", lambda fn, bs: cuts.append(len(bs)) or over_blocks(fn, bs))
        inputs = [Tensor(a) for a in arrays]
        with GradTape(inputs) as tape:
            parts = nx.pointwise_depthwise(*inputs, offsets, axes, parts=3)
        (node,) = tape.nodes
        assert len(cuts) == 1 and (cuts[0] > 1) == several
        assert node.outputs == tuple(p.key for p in parts)
        partials = node._vjp(list(gs))
        ref_inputs = [Tensor(a) for a in arrays]
        with GradTape(ref_inputs) as tape:
            ref = _qkv_reference(*ref_inputs, offsets, axes)
            terms = [nx.tensor_sum(nx.mul(r, Tensor(g))) for r, g in zip(ref, gs) if g is not None]
            target = terms[0] if len(terms) == 1 else nx.add(nx.add(terms[0], terms[1]), terms[2])
        ref_partials = tape.gradient(target, ref_inputs)
        assert [_sha256(p.data) for p in parts] == [_sha256(r.data) for r in ref]
        for got, want in zip(partials, ref_partials):
            assert got.shape == want.shape and _sha256(got) == _sha256(want.data)

    def test_pointwise_depthwise_parts_must_split_the_channels(self, rng):
        args = [Tensor(rng.normal(size=s)) for s in [(2, 5, 4), (4, 12), (12,), (3, 12), (12,)]]
        for parts in (0, 5):
            with pytest.raises(ValueError, match=f"12 channels do not split into {parts} equal parts"):
                nx.pointwise_depthwise(*args, [(-1,), (0,), (1,)], (-2,), parts=parts)

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
        ([(2, 4), (4, 16), (16,), (1, 16), (), (16, 4), (4,)], r"scale of shape \(1, 16\) does not broadcast"),
        ([(2, 4), (4, 16), (16,), (), (1, 16), (16, 4), (4,)], r"shift of shape \(1, 16\) does not broadcast"),
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
        # sum it replaced is kept alive through the VJP of the mul making u.
        x, c = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))
        with GradTape([x]) as tape:
            u = nx.mul(x, -1.0)
            y = nx.tensor_sum(nx.add(u, nx.mul(u, c)))
        u_node, mul_node = tape.nodes[:2]
        seen, alive = [], []
        mul_vjp, u_vjp = mul_node._vjp, u_node._vjp
        mul_node._vjp = lambda g: (lambda p: seen.append(weakref.ref(p[0])) or p)(mul_vjp(g))
        u_node._vjp = lambda g: alive.append(seen[0]() is not None) or u_vjp(g)
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


def _gate(q, k, v):
    """sum(q * k * v), the gated mixer's products without its convolution."""
    return nx.tensor_sum(nx.mul(nx.mul(q, k), v))


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
            ("crop", lambda a: nx.tensor_sum(nx.square(nx.crop(a, [slice(1, 4)]))), [(6,)]),
            ("circular_convolve",
             lambda a, b: nx.tensor_sum(nx.square(circular_convolve(a, b, dims=[0]))), [(5, 2), (9, 2)]),
            ("feed_forward",
             lambda x, g, b, *t: nx.tensor_sum(nx.square(nx.feed_forward(x, g, b, 1e-6, *t))),
             [(2, 3), (3,), (3,), (3, 8), (8,), (), (), (8, 2), (2,)]),
            ("pointwise_depthwise",
             lambda *t: nx.tensor_sum(nx.square(nx.pointwise_depthwise(*t, [(-1,), (0,), (1,)], (-2,))[0])),
             [(5, 2), (2, 6), (6,), (3, 6), (6,)]),
            ("pointwise_depthwise-qkv",
             lambda *t: _gate(*nx.pointwise_depthwise(*t, [(-1,), (0,), (1,)], (-2,), parts=3)),
             [(5, 2), (2, 6), (6,), (3, 6), (6,)]),
            ("pointwise_depthwise-k",
             lambda *t: nx.tensor_sum(nx.square(nx.pointwise_depthwise(*t, [(-1,), (0,), (1,)], (-2,), parts=3)[1])),
             [(5, 2), (2, 6), (6,), (3, 6), (6,)]),
        ],
    )
    def test_primitive_gradients(self, rng, name, f, shapes):
        inputs = [Tensor(rng.normal(size=s)) for s in shapes]
        assert grad_check(f, inputs) < 1e-5, name

    def test_conv_gradients(self, rng):
        f = lambda a, b: nx.tensor_sum(nx.square(circular_convolve(a, b, dims=[0])))
        assert grad_check(f, [Tensor(rng.normal(size=9)), Tensor(rng.normal(size=17))]) < 1e-5
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


def _definitions() -> tuple[set[str], set[str], set[str]]:
    """``module.function`` for every module-level function,
    ``module.Class.method`` for every method but a dunder, and
    ``module.NAME`` for every module-level constant, private ones included."""
    functions, methods, constants = set(), set(), set()
    for path in Path(nx.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                functions.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                methods |= {
                    f"{path.stem}.{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                }
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                constants |= {f"{path.stem}.{t.id}" for t in targets if isinstance(t, ast.Name)}
    return functions, methods, constants


def _names_the_package_reads() -> tuple[set[str], set[str]]:
    """The names loaded and the attributes read in ``src/fftmix``, ``demos``
    and the benchmark harness (not its tests); a definition or a re-export
    in ``__init__`` is not a read."""
    paths = [*Path(nx.__file__).parent.glob("*.py"), *(REPO / "demos").glob("*.py")]
    paths += [p for p in (REPO / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    loaded, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
    return loaded, attributes


def test_every_public_primitive_has_a_caller_in_the_package():
    # Private helpers too: one that loses its last caller is dead code.  A
    # method is reached only through an attribute read, so a local variable
    # or parameter of the same name does not count as a call of it; a
    # function or constant is reached through either kind of read.
    functions, methods, constants = _definitions()
    public = {name for name in functions | methods if not any(part.startswith("_") for part in name.split(".")[1:])}
    assert set(UNCALLED_BY_PACKAGE) <= public
    loaded, attributes = _names_the_package_reads()
    last = lambda name: name.rsplit(".", 1)[-1]
    read = loaded | attributes
    uncalled = {name for name in functions | constants if last(name) not in read}
    uncalled |= {name for name in methods if last(name) not in attributes}
    uncalled -= set(UNCALLED_BY_PACKAGE)
    assert not uncalled, f"functions, methods and constants without a reader: {sorted(uncalled)}"


# Methods and properties of package classes that no run of the package
# enters, each with the reason it stays.
UNENTERED_BY_PACKAGE = {
    "numerics.GradTape.nodes": "the benchmark harness's per-layer tracer reads each tape's nodes",
}


def _method_code() -> dict:
    """``module.Class.name`` -> the code objects of every method but a
    dunder, and of every property accessor, that a class of the package
    defines in the package's own source."""
    package = Path(nx.__file__).parent
    found = {}
    for path in package.glob("*.py"):
        if path.stem.startswith("__"):
            continue
        module = importlib.import_module(f"fftmix.{path.stem}")
        for cls in vars(module).values():
            if not (isinstance(cls, type) and cls.__module__ == module.__name__):
                continue
            for name, attr in vars(cls).items():
                if name.startswith("__") and name.endswith("__"):
                    continue
                funcs = [attr.fget, attr.fset, attr.fdel] if isinstance(attr, property) else [attr]
                codes = [getattr(getattr(f, "__func__", f), "__code__", None) for f in funcs]
                codes = [c for c in codes if c is not None and Path(c.co_filename).parent == package]
                if codes:
                    found[f"{path.stem}.{cls.__name__}.{name}"] = codes
    return found


def _run_every_subcommand(tmp_path) -> None:
    """Each CLI subcommand in-process on micro checkpoints, then one 224 px
    ``erf_map`` on ``hpx-s4``, whose wide layers run their blocks on the pool."""
    rng = np.random.default_rng(0)
    images = tmp_path / "data"
    for split in ("train", "val"):
        for label in ("a", "b"):
            (images / split / label).mkdir(parents=True)
            for i in range(2):
                hpxio.write_hpx1(images / split / label / f"{i}.hpx1", rng.normal(size=(32, 32, 3)))
    micro = mdl.micro_config().to_dict()
    every_mixer = {**micro, "mixer_layout": ["local", "separable2d", "causal", "bidirectional"], "num_classes": 2}
    train = {"total_epochs": 1, "warmup_epochs": 0}
    runs = {
        "synthetic": {"model": micro, "train": train, "data": {"train_size": 16, "val_size": 8}},
        "directory": {"model": every_mixer, "train": train,
                      "data": {"source": "directory", "path": str(images), "num_classes": 2}},
    }
    for name, config in runs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    argvs = [["train", "--config", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / name)] for name in runs]
    synthetic, directory = (str(tmp_path / name / "checkpoint") for name in runs)
    argvs += [
        ["model", "info", "--checkpoint", directory],
        ["model", "info", "--preset", "chpx-s4", "--input-size", "64", "--out", str(tmp_path / "info")],
        ["erf", "--model", synthetic, "--num", "2", "--out", str(tmp_path / "erf")],
        ["erf", "--model", directory, "--images", str(images / "val" / "a"), "--out", str(tmp_path / "erf_dir")],
        ["coverage", "--model", directory, "--out", str(tmp_path / "coverage")],
        ["truncate", "--model", synthetic, "--stage", "2", "--rel", "1.0", "--eval", "--out", str(tmp_path / "trunc")],
        ["bench", "--variants", ",".join(analysis.BENCH_VARIANTS), "--extents", "3,4", "--channels", "2",
         "--out", str(tmp_path / "bench")],
        ["filters", "dump", "--model", directory, "--per-channel", "--out", str(tmp_path / "filters")],
    ]
    for argv in argvs:
        assert cli.main(argv) == 0, argv
    model = mdl.build_model(mdl.preset_config("hpx-s4"), seed=0)
    analysis.erf_map(model, rng.normal(size=(1, 224, 224, 3)))


def test_every_method_and_property_is_entered_by_a_run_of_the_package(tmp_path, monkeypatch):
    # The static test above counts a method as read when any attribute of
    # its name is, such as ``.dtype`` of an array or ``to_dict`` of another
    # class; this one requires each method's own code to run.
    code = _method_code()
    assert set(UNENTERED_BY_PACKAGE) <= set(code)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    monkeypatch.setattr(nx, "_POOL", None)  # a pool whose threads start under the profile
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        _run_every_subcommand(tmp_path)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        if nx._POOL is not None:
            nx._POOL.shutdown()
    unentered = {name for name, codes in code.items() if not entered.issuperset(codes)}
    unentered -= set(UNENTERED_BY_PACKAGE)
    assert not unentered, f"methods and properties that no run enters: {sorted(unentered)}"
