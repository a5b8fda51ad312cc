"""Tour of the float64 autodiff engine: forward values, exact backward
gradients, and the finite-difference harness that keeps them honest."""

import numpy as np

from resizenet.tensor import (
    Tensor, add, conv2d, grad_check, mul, relu, sigmoid, sum_all,
)

rng = np.random.default_rng(0)

print("== scalars and the chain rule ==")
x = Tensor([0.0], requires_grad=True)
y = sum_all(sigmoid(x))
y.backward()
print(f"sigmoid(0) = {y.item():.3f}, d/dx sigmoid at 0 = {x.grad[0]:.3f} "
      "(analytic: 0.25)")

print("\n== a tensor feeding two consumers sums both gradient paths ==")
z = Tensor([1.0, -2.0], requires_grad=True)
loss = sum_all(add(relu(z), sigmoid(z)))
loss.backward()
print(f"z.grad = {z.grad}  (relu mask + sigmoid derivative)")

print("\n== convolution against a brute-force oracle ==")
def naive_conv(x, w):
    b, c, h, wd = x.shape
    co, _, k, _ = w.shape
    out = np.zeros((b, co, h - k + 1, wd - k + 1))
    for n in range(b):
        for o in range(co):
            for i in range(out.shape[2]):
                for j in range(out.shape[3]):
                    out[n, o, i, j] = np.sum(
                        x[n, :, i:i + k, j:j + k] * w[o])
    return out

xa = rng.standard_normal((2, 3, 6, 6))
wa = rng.standard_normal((4, 3, 3, 3))
# the engine is channels-last: [B,H,W,C] in, [B,Ho,Wo,Cout] out
fast = conv2d(Tensor(xa.transpose(0, 2, 3, 1)),
              Tensor(wa)).data.transpose(0, 3, 1, 2)
slow = naive_conv(xa, wa)
print(f"max |vectorized - nested-loop| = {np.abs(fast - slow).max():.2e}")

print("\n== gradient checking a conv+relu composite ==")
xt = Tensor(rng.standard_normal((1, 5, 5, 2)), requires_grad=True)
wt = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.4, requires_grad=True)
err = grad_check(lambda: sum_all(mul(relu(conv2d(xt, wt, pad=1)),
                                     relu(conv2d(xt, wt, pad=1)))),
                 [xt, wt])
print(f"max relative error vs central differences: {err:.2e} (< 1e-4)")
