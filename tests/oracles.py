"""References the tests compare the package against; the package itself never calls them.

- The paper's formulas for one draw of the gate on a single weight
  vector, in plain numpy: ``log pi`` is the log softmax of ``w**2`` over
  the unmasked entries, a draw is ``softmax((log pi + lam) / tau)``, and
  its winner is masked out before the next draw. They share no code with
  ``sparselocal.gate``, take no arguments but valid ones, and build no
  autodiff graph.
- Central finite differences, the gradient oracle, with one helper for a
  function of one input array and one for a model's parameters.
"""

import numpy as np

from sparselocal import autodiff as ad


def masked_log_prob(w, mask):
    """Log selection probabilities of one draw: log softmax of w**2 over mask == 0, -inf elsewhere."""
    live = np.asarray(mask) == 0
    s = np.where(live, np.square(w), -np.inf)
    s = s - s.max()
    return s - np.log(np.exp(s).sum())


def gate_step(log_pi, lam, tau):
    """One relaxed draw: softmax of (log_pi + lam) / tau; entries whose log_pi is -inf get exact zeros."""
    x = (np.asarray(log_pi) + lam) / tau
    e = np.exp(x - x.max())
    return e / e.sum()


def update_mask(mask, step):
    """The mask with the draw's winner, its first maximum, marked as used."""
    out = np.array(mask)
    out[np.argmax(step)] = 1
    return out


def oracle_draws(w, mask, noise, tau):
    """The soft draws of one weight row, one per array of ``noise``: the draws, their winners and the final mask."""
    m, steps, order = np.asarray(mask), [], []
    for lam in noise:
        step = gate_step(masked_log_prob(w, m), lam, tau)
        steps.append(step)
        order.append(int(np.argmax(step)))
        m = update_mask(m, step)
    return steps, order, m


def finite_difference_grad(f, x, eps=1e-4):
    """Central-difference gradient of a scalar function of an array.

    ``f`` must be deterministic (freeze any noise before calling) and is
    evaluated at 2 * x.size perturbed points. The same array object is
    passed to ``f`` every time with one coordinate displaced.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat, gflat = x.reshape(-1), grad.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + eps
        fp = float(f(x))
        flat[j] = orig - eps
        fm = float(f(x))
        flat[j] = orig
        gflat[j] = (fp - fm) / (2.0 * eps)
    return grad


def rel_error(a, b):
    """Max-norm relative disagreement between two gradient arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-12)
    return float(np.max(np.abs(a - b))) / scale


def grad_error(build, x0, eps=1e-4):
    """rel_error of the backward() gradient of the scalar ``build(Tensor(x))`` at x0 against finite differences."""
    t = ad.Tensor(x0, requires_grad=True)
    build(t).backward()
    fd = finite_difference_grad(lambda x: float(build(ad.Tensor(x)).data), x0, eps=eps)
    return rel_error(t.grad, fd)


def param_grad_error(model, loss_of, names=None):
    """rel_error of the backward() gradient of ``loss_of()`` against finite differences over model parameters.

    ``names`` picks the parameters, all of them in sorted order by
    default. A parameter that the loss does not reach has no grad, which
    counts as zero. The parameters are restored afterwards.
    """
    named = model.named_parameters()
    params = [named[n] for n in (sorted(named) if names is None else names)]
    base = np.concatenate([p.data.ravel() for p in params])

    def loss_at(vec):
        lo = 0
        for p in params:
            p.data[...] = vec[lo : lo + p.data.size].reshape(p.data.shape)
            lo += p.data.size
        return float(loss_of().data)

    loss_of().backward()
    analytic = np.concatenate([np.zeros(p.data.size) if p.grad is None else p.grad.ravel() for p in params])
    fd = finite_difference_grad(loss_at, base)
    loss_at(base)
    return rel_error(analytic, fd)
