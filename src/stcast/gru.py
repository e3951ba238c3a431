"""Stacked gated recurrent encoder with hand-derived backpropagation.

Cell equations (reset gate applied to the hidden state before its
candidate matmul):

    r = sigmoid(x W_r + h U_r + b_r)
    u = sigmoid(x W_u + h U_u + b_u)
    c = tanh(x W_c + (r * h) U_c + b_c)
    h' = u * h + (1 - u) * c

All arrays are float64; a step operates on a (batch, features) slab so
training can batch arbitrarily many windows.

Parameter layout: each layer keeps its weights in three gate-stacked
blocks, W (3, in, H), U (3, H, H) and b (3, H), gates in (r, u, c)
order.  The named entries ``l{l}.W_r`` ... ``l{l}.b_c`` are views into
the blocks, so an in-place update by name updates the block; assigning
``GRUStack.params`` copies the given arrays into fresh blocks.  Gates
sit on the leading axis, so every gate's slab stays contiguous.

The forward step keeps one 2-D product per gate and operand.  The
backward step writes the three gate gradients into one (3, B, H) buffer
and forms its products as broadcasting matmuls over the gate axis;
numpy runs one gemm per gate slice with the per-gate product's shape and
transpose flags, so every gradient is bit-identical to the per-gate
form.  Parameter gradients accumulate only into blocks of the same
layout (``zero_grads``), one allocation per training batch; the step
returns the previous hidden state's gradient alone.
"""

from __future__ import annotations

import numpy as np

from scipy.special import expit as _sigmoid

GATES = ("r", "u", "c")


class GateBlocks(dict):
    """Name -> array dict over gate-stacked blocks.

    ``blocks[l]`` is layer l's (W, U, b); the entries ``l{l}.W_r`` ...
    ``l{l}.b_c`` are views into it, in the order W, U, b per gate.
    """

    def __init__(self, blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]]):
        super().__init__()
        self.blocks = blocks
        for layer, layer_blocks in enumerate(blocks):
            for g, gate in enumerate(GATES):
                for kind, block in zip("WUb", layer_blocks):
                    self[f"l{layer}.{kind}_{gate}"] = block[g]


def init_gru_params(input_size: int, hidden_size: int, num_layers: int,
                    rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Uniform +-1/sqrt(fan_in) weight matrices, zero biases."""
    params: dict[str, np.ndarray] = {}
    for layer in range(num_layers):
        in_dim = input_size if layer == 0 else hidden_size
        for gate in GATES:
            w_bound = 1.0 / np.sqrt(in_dim)
            u_bound = 1.0 / np.sqrt(hidden_size)
            params[f"l{layer}.W_{gate}"] = rng.uniform(
                -w_bound, w_bound, (in_dim, hidden_size))
            params[f"l{layer}.U_{gate}"] = rng.uniform(
                -u_bound, u_bound, (hidden_size, hidden_size))
            params[f"l{layer}.b_{gate}"] = np.zeros(hidden_size)
    return params


class GRUStack:
    """Thin stateful wrapper over the gate-stacked parameter blocks.

    Hidden state is a list of (batch, hidden) arrays, one per layer.
    """

    def __init__(self, input_size: int, hidden_size: int, num_layers: int,
                 params: dict[str, np.ndarray]):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.params = params

    @property
    def params(self) -> GateBlocks:
        return self._params

    @params.setter
    def params(self, params: dict[str, np.ndarray]):
        """Copy the named per-gate arrays (other keys are ignored) into
        fresh blocks."""
        self._params = GateBlocks([
            tuple(np.array([params[f"l{layer}.{kind}_{gate}"] for gate in GATES],
                           dtype=float)
                  for kind in "WUb")
            for layer in range(self.num_layers)
        ])

    def init_hidden(self, batch: int) -> list[np.ndarray]:
        return [np.zeros((batch, self.hidden_size)) for _ in range(self.num_layers)]

    def zero_grads(self) -> GateBlocks:
        """Zero gradient blocks in the parameters' layout and names."""
        return GateBlocks([tuple(np.zeros_like(block) for block in blocks)
                           for blocks in self.params.blocks])

    def step(self, x: np.ndarray, hidden: list[np.ndarray]):
        """One time step for the whole stack.

        Returns (new_hidden, cache); the cache carries everything the
        backward pass needs.
        """
        p = self.params
        new_hidden = []
        cache = []
        inp = x
        for layer in range(self.num_layers):
            h = hidden[layer]
            pre = f"l{layer}."
            r = _sigmoid(inp @ p[pre + "W_r"] + h @ p[pre + "U_r"] + p[pre + "b_r"])
            u = _sigmoid(inp @ p[pre + "W_u"] + h @ p[pre + "U_u"] + p[pre + "b_u"])
            c = np.tanh(inp @ p[pre + "W_c"] + (r * h) @ p[pre + "U_c"] + p[pre + "b_c"])
            h_new = u * h + (1.0 - u) * c
            cache.append((inp, h, r, u, c))
            new_hidden.append(h_new)
            inp = h_new
        return new_hidden, cache

    def step_backward(self, cache, d_new_hidden: list[np.ndarray],
                      grads: GateBlocks) -> list[np.ndarray]:
        """Backprop one step.

        ``d_new_hidden[l]`` is the loss gradient w.r.t. layer l's output
        at this step, accumulated from the next time step and (for the
        top layer) the projection head; it is not modified.  Parameter
        gradients are added in place to the blocks of ``grads``, which
        must come from ``zero_grads``.  Returns d_hidden_prev, the
        gradient w.r.t. each layer's previous hidden state; the gradient
        w.r.t. the layer-0 input is not formed.
        """
        d_prev: list[np.ndarray] = [None] * self.num_layers
        d_h_new = d_new_hidden[-1]
        for layer in range(self.num_layers - 1, -1, -1):
            inp, h, r, u, c = cache[layer]
            w, u_block, _ = self.params.blocks[layer]
            u_t = u_block.transpose(0, 2, 1)
            g_w, g_u, g_b = grads.blocks[layer]

            # In-place chains keep each per-gate expression's left-to-right
            # order, e.g. da_u = d_h_new * (h - c) * u * (1 - u).
            da = np.empty((3,) + h.shape)      # pre-activation grads, (r, u, c)
            da_r, da_u, da_c = da
            one_minus_u = 1.0 - u
            np.multiply(d_h_new, h - c, out=da_u)
            da_u *= u
            da_u *= one_minus_u
            np.multiply(d_h_new, one_minus_u, out=da_c)
            da_c *= 1.0 - c * c
            dhr = da_c @ u_t[2]
            np.multiply(dhr, h, out=da_r)
            da_r *= r
            da_r *= 1.0 - r

            rec = np.matmul(da[:2], u_t[:2])
            d_h = d_h_new * u
            dhr *= r
            d_h += dhr
            d_h += rec[0]
            d_h += rec[1]
            d_prev[layer] = d_h

            g_w += np.matmul(inp.T, da)
            g_u[:2] += np.matmul(h.T, da[:2])
            g_u[2] += (r * h).T @ da_c
            g_b += da.sum(axis=1)

            if layer > 0:
                # (r + u) + c, then the layer's own output gradient.
                d_inp = np.matmul(da, w.transpose(0, 2, 1))
                d_h_new = d_inp[0] + d_inp[1]
                d_h_new += d_inp[2]
                d_h_new += d_new_hidden[layer - 1]
        return d_prev
