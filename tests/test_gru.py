import numpy as np
import pytest

from stcast.gru import GRUStack, init_gru_params


def scalar_cell_oracle(params, layer, x, h):
    """Hand-coded scalar-loop evaluation of the cell equations; gate g's
    weights are slab g of the layer's W, U and b blocks."""
    w, u_w, b = (params[f"l{layer}.{kind}"] for kind in "WUb")
    hid = h.shape[0]
    # The candidate needs the full reset vector first.
    r = np.empty(hid)
    u = np.empty(hid)
    for j in range(hid):
        a_r = b[0][j]
        a_u = b[1][j]
        for k in range(x.shape[0]):
            a_r += x[k] * w[0][k, j]
            a_u += x[k] * w[1][k, j]
        for k in range(hid):
            a_r += h[k] * u_w[0][k, j]
            a_u += h[k] * u_w[1][k, j]
        r[j] = 1.0 / (1.0 + np.exp(-a_r))
        u[j] = 1.0 / (1.0 + np.exp(-a_u))
    new_h = np.empty(hid)
    for j in range(hid):
        a_c = b[2][j]
        for k in range(x.shape[0]):
            a_c += x[k] * w[2][k, j]
        for k in range(hid):
            a_c += r[k] * h[k] * u_w[2][k, j]
        c_j = np.tanh(a_c)
        new_h[j] = u[j] * h[j] + (1.0 - u[j]) * c_j
    return new_h


class TestForward:
    def test_params_held_by_reference(self):
        params = init_gru_params(2, 3, 1, np.random.default_rng(0))
        stack = GRUStack(2, 3, 1, params=params)
        assert stack.params is params
        x = np.ones((1, 2))
        before, _ = stack.step(x, stack.init_hidden(1))
        params["l0.b"] += 1.0      # an in-place update is the next step's weights
        after, _ = stack.step(x, stack.init_hidden(1))
        assert not np.array_equal(before[0], after[0])

    def test_zero_params_zero_input_fixed_point(self):
        stack = GRUStack(2, 5, 2, params={
            k: np.zeros_like(v)
            for k, v in init_gru_params(2, 5, 2, np.random.default_rng(0)).items()
        })
        hidden = stack.init_hidden(1)
        new_hidden, _ = stack.step(np.zeros((1, 2)), hidden)
        for h in new_hidden:
            assert np.array_equal(h, np.zeros((1, 5)))

    def test_determinism(self):
        stack = GRUStack(2, 4, 2,
                         params=init_gru_params(2, 4, 2, np.random.default_rng(1)))
        x = np.random.default_rng(2).normal(size=(3, 2))
        h0 = stack.init_hidden(3)
        out1, _ = stack.step(x, h0)
        out2, _ = stack.step(x, stack.init_hidden(3))
        for a, b in zip(out1, out2):
            assert np.array_equal(a, b)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(3)
        stack = GRUStack(3, 4, 2, params=init_gru_params(3, 4, 2, rng))
        x = rng.normal(size=(1, 3))
        hidden = [rng.normal(size=(1, 4)) for _ in range(2)]
        new_hidden, _ = stack.step(x, hidden)
        h0 = scalar_cell_oracle(stack.params, 0, x[0], hidden[0][0])
        assert np.allclose(new_hidden[0][0], h0, atol=1e-12)
        h1 = scalar_cell_oracle(stack.params, 1, h0, hidden[1][0])
        assert np.allclose(new_hidden[1][0], h1, atol=1e-12)

    def test_gates_bounded(self):
        rng = np.random.default_rng(4)
        stack = GRUStack(2, 6, 1, params=init_gru_params(2, 6, 1, rng))
        x = rng.normal(0, 3, size=(10, 2))
        hidden = [rng.normal(0, 3, size=(10, 6))]
        _, cache = stack.step(x, hidden)
        _, _, r, u, c = cache[0]
        assert np.all((r > 0) & (r < 1))
        assert np.all((u > 0) & (u < 1))
        assert np.all((c > -1) & (c < 1))


class TestBackward:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        stack = GRUStack(2, 4, 2, params=init_gru_params(2, 4, 2, rng))
        steps = 6
        xs = rng.normal(size=(steps, 3, 2))
        w_out = rng.normal(size=(4,))

        def forward():
            hidden = stack.init_hidden(3)
            caches = []
            for k in range(steps):
                hidden, cache = stack.step(xs[k], hidden)
                caches.append(cache)
            return float(np.sum(hidden[-1] @ w_out)), caches, hidden

        loss, caches, hidden = forward()
        grads = stack.zero_grads()
        d_hidden = stack.init_hidden(3)
        d_hidden[-1] = np.tile(w_out, (3, 1))
        for k in range(steps - 1, -1, -1):
            d_hidden = stack.step_backward(caches[k], d_hidden, grads)

        # Four coordinates of every gate's W, U and b slab.
        for n, (slab, grad) in enumerate(zip(stack.gate_slabs(stack.params),
                                             stack.gate_slabs(grads))):
            flat = slab.reshape(-1)
            for idx in rng.choice(flat.size, size=min(4, flat.size),
                                  replace=False):
                orig = flat[idx]
                flat[idx] = orig + 1e-6
                up = forward()[0]
                flat[idx] = orig - 1e-6
                dn = forward()[0]
                flat[idx] = orig
                fd = (up - dn) / 2e-6
                an = grad.reshape(-1)[idx]
                assert an == pytest.approx(fd, rel=1e-4, abs=1e-7), n

    def test_gate_slabs_order(self):
        stack = GRUStack(2, 3, 2,
                         params=init_gru_params(2, 3, 2, np.random.default_rng(0)))
        expected = [(layer, kind, g) for layer in range(2) for g in range(3)
                    for kind in "WUb"]
        slabs = list(stack.gate_slabs(stack.params))
        assert len(slabs) == len(expected)
        for slab, (layer, kind, g) in zip(slabs, expected):
            assert slab.base is stack.params[f"l{layer}.{kind}"]
            assert np.shares_memory(slab, stack.params[f"l{layer}.{kind}"][g])

    def test_input_gradient_flows(self):
        """The gradient reaches the previous hidden state (the layer-0
        input gradient is not formed) and matches central differences."""
        rng = np.random.default_rng(6)
        stack = GRUStack(2, 3, 1, params=init_gru_params(2, 3, 1, rng))
        x = rng.normal(size=(1, 2))
        hidden = [rng.normal(size=(1, 3))]
        new_hidden, cache = stack.step(x, hidden)
        d_prev = stack.step_backward(cache, [np.ones((1, 3))], stack.zero_grads())
        assert d_prev[0].shape == (1, 3)
        assert np.any(d_prev[0] != 0.0)
        for j in range(3):
            up, dn = hidden[0].copy(), hidden[0].copy()
            up[0, j] += 1e-6
            dn[0, j] -= 1e-6
            fd = (stack.step(x, [up])[0][0].sum()
                  - stack.step(x, [dn])[0][0].sum()) / 2e-6
            assert d_prev[0][0, j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestInit:
    def test_fan_in_bounds(self):
        params = init_gru_params(2, 16, 3, np.random.default_rng(7))
        assert np.max(np.abs(params["l0.W"][0])) <= 1.0 / np.sqrt(2)
        assert np.max(np.abs(params["l1.W"][0])) <= 1.0 / np.sqrt(16)
        assert np.max(np.abs(params["l0.U"][2])) <= 1.0 / np.sqrt(16)
        assert np.array_equal(params["l2.b"], np.zeros((3, 16)))

    def test_gate_stacked_layout(self):
        params = init_gru_params(2, 5, 2, np.random.default_rng(8))
        assert {k: v.shape for k, v in params.items()} == {
            "l0.W": (3, 2, 5), "l0.U": (3, 5, 5), "l0.b": (3, 5),
            "l1.W": (3, 5, 5), "l1.U": (3, 5, 5), "l1.b": (3, 5)}
        assert all(v.flags.c_contiguous for v in params.values())

    def test_draws_gate_by_gate_w_then_u(self):
        # Layer by layer, gate by gate, W then U: the draw order fixes the
        # initial weights, and with them every trained model's bits.
        params = init_gru_params(2, 4, 2, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        for layer, in_dim in enumerate((2, 4)):
            for g in range(3):
                w = rng.uniform(-1 / np.sqrt(in_dim), 1 / np.sqrt(in_dim), (in_dim, 4))
                u = rng.uniform(-0.5, 0.5, (4, 4))
                assert np.array_equal(params[f"l{layer}.W"][g], w)
                assert np.array_equal(params[f"l{layer}.U"][g], u)

    def test_seeded_reproducible(self):
        a = init_gru_params(2, 8, 2, np.random.default_rng(11))
        b = init_gru_params(2, 8, 2, np.random.default_rng(11))
        for key in a:
            assert np.array_equal(a[key], b[key])
