import weakref

import numpy as np
import pytest

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


class TestTapeAndVjp:
    def test_scaling_vjp(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with GradTape() as tape:
            y = nx.mul(x, 2.0)
        node = tape.nodes[-1]
        grads = node.vjp(np.ones(3))
        assert np.array_equal(grads[0], np.full(3, 2.0))

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


PRUNED_OPS = {
    "matmul": (lambda x, w: nx.matmul(x, w), [(2, 3, 4), (4, 5)]),
    "strided_conv2d": (lambda x, w, b: nx.strided_conv2d(x, w, b, 2, 1),
                       [(1, 6, 6, 2), (3, 3, 2, 4), (4,)]),
    "circular_convolve": (lambda x, h: circular_convolve(x, h, dims=[0]), [(9, 2), (9, 2)]),
    "causal_convolve": (lambda x, h: nx.causal_convolve(x, h, axis=-2), [(7, 2), (3, 2)]),
    "shift_convolve": (lambda x, w: nx.shift_convolve(x, w, [(-1,), (0,), (2,)], (-2,)),
                       [(6, 2), (3, 2)]),
}


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


class TestGradCheck:
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
            ("sub", lambda a, b: nx.tensor_sum(nx.square(nx.sub(a, b))), [(4,), (4,)]),
            ("mul", lambda a, b: nx.tensor_sum(nx.mul(a, b)), [(5,), (5,)]),
            ("div", lambda a, b: nx.tensor_sum(nx.div(a, b)), [(4,), (4,)]),
            ("exp", lambda a: nx.tensor_sum(nx.exp(a)), [(6,)]),
            ("log", lambda a: nx.tensor_sum(nx.log(nx.add(nx.square(a), 1.0))), [(6,)]),
            ("sin", lambda a: nx.tensor_sum(nx.sin(a)), [(6,)]),
            ("sqrt", lambda a: nx.tensor_sum(nx.sqrt(nx.add(nx.square(a), 0.5))), [(6,)]),
            ("matmul", lambda a, b: nx.tensor_sum(nx.square(nx.matmul(a, b))), [(3, 4), (4, 2)]),
            ("mean", lambda a: nx.mean(nx.square(a)), [(4, 5)]),
            ("sum_axis", lambda a: nx.tensor_sum(nx.square(nx.tensor_sum(a, axis=0))), [(3, 4)]),
            ("reshape", lambda a: nx.tensor_sum(nx.square(nx.reshape(a, (6,)))), [(2, 3)]),
            ("pad", lambda a: nx.tensor_sum(nx.square(nx.pad(a, [(1, 2)]))), [(5,)]),
            ("crop", lambda a: nx.tensor_sum(nx.square(nx.crop(a, [slice(1, 4)]))), [(6,)]),
            ("roll", lambda a: nx.tensor_sum(nx.mul(nx.roll(a, 2, 0), a)), [(5,)]),
            ("transpose", lambda a: nx.tensor_sum(nx.square(nx.transpose(a, (1, 0)))), [(3, 4)]),
        ],
    )
    def test_primitive_gradients(self, rng, name, f, shapes):
        inputs = [Tensor(rng.normal(size=s)) for s in shapes]
        assert grad_check(f, inputs) < 1e-5, name

    def test_relu_gradient_away_from_kink(self, rng):
        x = rng.normal(size=12)
        x[np.abs(x) < 0.1] += 0.3
        err = grad_check(lambda a: nx.tensor_sum(nx.square(nx.relu(a))), [Tensor(x)])
        assert err < 1e-5

    def test_conv_gradients(self, rng):
        f = lambda a, b: nx.tensor_sum(nx.square(circular_convolve(a, b, dims=[0])))
        assert grad_check(f, [Tensor(rng.normal(size=9)), Tensor(rng.normal(size=9))]) < 1e-5
        f2 = lambda a, b: nx.tensor_sum(nx.square(nx.causal_convolve(a, b, axis=-2)))
        assert grad_check(f2, [Tensor(rng.normal(size=(7, 2))), Tensor(rng.normal(size=(3, 2)))]) < 1e-5
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
