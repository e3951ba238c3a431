"""Stacked gated recurrent encoder with hand-derived backpropagation.

Cell equations, with gate g's weights written W[g], U[g] and b[g] (the
reset gate is applied to the hidden state before its candidate matmul):

    r = sigmoid(x W[0] + h U[0] + b[0])
    u = sigmoid(x W[1] + h U[1] + b[1])
    c = tanh(x W[2] + (r * h) U[2] + b[2])
    h' = u * h + (1 - u) * c

All arrays are float64; a step operates on a (batch, features) slab so
training can batch arbitrarily many windows.

Parameter layout: one name -> array dict holds each layer's weights in
three gate-stacked blocks, ``l{l}.W`` (3, in, H), ``l{l}.U`` (3, H, H)
and ``l{l}.b`` (3, H), gates in (r, u, c) order; gate g of a block is
``block[g]``.  Gates sit on the leading axis, so every gate's slab stays
contiguous.  ``GRUStack`` computes with the dict it is given, so an
in-place update of a block is what the next step uses.

The forward step keeps one 2-D product per gate and operand.  The
backward step writes the three gate gradients into one (3, B, H) buffer
and forms its products as broadcasting matmuls over the gate axis;
numpy runs one gemm per gate slice with the per-gate product's shape and
transpose flags, so every gradient is bit-identical to the per-gate
form.  Parameter gradients accumulate into a dict of the same layout
(``zero_grads``), one allocation per training batch; the step returns
the previous hidden state's gradient alone.
"""

from __future__ import annotations

import numpy as np

from scipy.special import expit as _sigmoid


def param_shapes(input_size: int, hidden_size: int,
                 num_layers: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every encoder block, in layout order."""
    shapes = {}
    for layer in range(num_layers):
        in_dim = input_size if layer == 0 else hidden_size
        shapes[f"l{layer}.W"] = (3, in_dim, hidden_size)
        shapes[f"l{layer}.U"] = (3, hidden_size, hidden_size)
        shapes[f"l{layer}.b"] = (3, hidden_size)
    return shapes


def init_gru_params(input_size: int, hidden_size: int, num_layers: int,
                    rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Uniform +-1/sqrt(fan_in) weight blocks, zero biases.  Each layer
    draws gate by gate, W then U."""
    params = {name: np.zeros(shape) for name, shape
              in param_shapes(input_size, hidden_size, num_layers).items()}
    for layer in range(num_layers):
        for g in range(3):
            for block in (params[f"l{layer}.W"], params[f"l{layer}.U"]):
                bound = 1.0 / np.sqrt(block.shape[1])
                block[g] = rng.uniform(-bound, bound, block.shape[1:])
    return params


class GRUStack:
    """Thin stateful wrapper over a gate-stacked parameter dict, which it
    holds by reference (other keys, such as a head's, are carried along).

    Hidden state is a list of (batch, hidden) arrays, one per layer.
    """

    def __init__(self, input_size: int, hidden_size: int, num_layers: int,
                 params: dict[str, np.ndarray]):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.params = params

    def init_hidden(self, batch: int) -> list[np.ndarray]:
        return [np.zeros((batch, self.hidden_size)) for _ in range(self.num_layers)]

    def zero_grads(self) -> dict[str, np.ndarray]:
        """Zero gradients with the parameters' names and shapes."""
        return {name: np.zeros_like(value) for name, value in self.params.items()}

    def gate_slabs(self, arrays: dict[str, np.ndarray]):
        """The encoder's per-gate slabs of a parameter or gradient dict:
        layer by layer, gate by gate, W then U then b."""
        for layer in range(self.num_layers):
            for slabs in zip(*(arrays[f"l{layer}.{kind}"] for kind in "WUb")):
                yield from slabs

    def step(self, x: np.ndarray, hidden: list[np.ndarray]):
        """One time step for the whole stack.

        Returns (new_hidden, cache); the cache carries everything the
        backward pass needs.
        """
        new_hidden = []
        cache = []
        inp = x
        for layer in range(self.num_layers):
            h = hidden[layer]
            w, u_block, b = (self.params[f"l{layer}.{kind}"] for kind in "WUb")
            r = _sigmoid(inp @ w[0] + h @ u_block[0] + b[0])
            u = _sigmoid(inp @ w[1] + h @ u_block[1] + b[1])
            c = np.tanh(inp @ w[2] + (r * h) @ u_block[2] + b[2])
            h_new = u * h + (1.0 - u) * c
            cache.append((inp, h, r, u, c))
            new_hidden.append(h_new)
            inp = h_new
        return new_hidden, cache

    def step_backward(self, cache, d_new_hidden: list[np.ndarray],
                      grads: dict[str, np.ndarray]) -> list[np.ndarray]:
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
            w, u_block = self.params[f"l{layer}.W"], self.params[f"l{layer}.U"]
            u_t = u_block.transpose(0, 2, 1)
            g_w, g_u, g_b = (grads[f"l{layer}.{kind}"] for kind in "WUb")

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
