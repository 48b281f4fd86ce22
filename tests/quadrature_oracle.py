"""Time-quadrature oracles for the closed forms in lpplab.quasilocal.

These evaluate the Gaussian-filtered time integrals directly, by
composite 12-point Gauss-Legendre quadrature with panel doubling until
two successive evaluations agree to `tol`:

  quadrature_R_batch      R_i^{<=T} as the |t| <= T integral of
                          w_i(t) e^{itH} e^{-itH0}, plus the analytic
                          full-time correction of the scalar Dyson term;
  quadrature_projector    P_lambda as the integral of
                          sqrt(a/pi) e^{-a t^2} e^{it(H-lam)} over a window
                          wide enough that the discarded tail is below
                          `tail`.

They are slow (one D x D product per node) and exist only to check the
library against an independent evaluation.
"""

import numpy as np

QUAD_TOL = 1e-10
MAX_PANELS = 1 << 13

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def composite_nodes(T, panels):
    edges = np.linspace(-T, T, panels + 1)
    half = (edges[1] - edges[0]) / 2
    mids = (edges[:-1] + edges[1:]) / 2
    t = (mids[:, None] + half * _GL_NODES[None, :]).ravel()
    q = np.broadcast_to(half * _GL_WEIGHTS[None, :], (panels, 12)).ravel()
    return t, q


def refine(apply_fn, T, measure, tol=QUAD_TOL, start_panels=2):
    """Panel-doubling until successive evaluations differ by < tol."""
    prev = None
    panels = start_panels
    while panels <= MAX_PANELS:
        cur = apply_fn(*composite_nodes(T, panels))
        if prev is not None and measure(cur, prev) < tol:
            return cur, panels
        prev = cur
        panels *= 2
    raise RuntimeError(f"quadrature did not converge within {MAX_PANELS} panels")


def quadrature_projector(S, lam, alpha, tail=1e-16):
    """Gaussian-filtered projector by time quadrature."""
    kappa = S.values
    T_inf = np.sqrt(np.log(1.0 / tail) / alpha)
    pref = np.sqrt(alpha / np.pi)

    def apply_fn(t, q):
        phases = np.exp(1j * np.outer(t, kappa - lam))
        return pref * ((q * np.exp(-alpha * t * t)) @ phases)

    w, _ = refine(apply_fn, T_inf, lambda a, b: np.abs(a - b).max())
    return (S.vectors * w.real) @ S.vectors.conj().T


def quadrature_R_batch(S0, S, lam0s, params):
    """R_i^{<=T} for each lambda_i0 in lam0s, by time quadrature.

    The convergence measure is the largest spectral norm of the change
    in the stack between two panel counts.
    """
    lam0s = np.asarray(lam0s, dtype=float)
    alpha, T = params.alpha, params.T
    nodes, a = params.nodes, params.a
    pref = np.sqrt(alpha / np.pi)
    C = S.vectors.conj().T @ S0.vectors
    kap, kap0 = S.values, S0.values
    n_i, D = len(lam0s), C.shape[0]

    def apply_fn(t, q):
        acc = np.zeros((n_i, D, D), dtype=complex)
        scal = np.zeros(n_i, dtype=complex)
        gauss = q * np.exp(-alpha * t * t)
        for k in range(len(t)):
            tk = t[k]
            # w_i(t) = e^{it lam_i0} sum_lambda a_lambda e^{-it lambda}
            w = np.exp(1j * tk * lam0s) * np.sum(a * np.exp(-1j * tk * nodes))
            mid = (np.exp(1j * tk * kap)[:, None] * C) * np.exp(-1j * tk * kap0)[None, :]
            acc += (gauss[k] * w)[:, None, None] * mid[None, :, :]
            scal += gauss[k] * w
        return pref * acc, pref * scal

    def measure(cur, prev):
        return np.linalg.norm(cur[0] - prev[0], ord=2, axis=(1, 2)).max()

    (acc, scal_quad), _ = refine(apply_fn, T, measure)

    # full-time value of the zeroth Dyson term, per i
    scal_full = np.array(
        [np.sum(a * np.exp(-((lam0 - nodes) ** 2) / (4 * alpha))) for lam0 in lam0s]
    )
    comp = scal_full - scal_quad
    stack = np.einsum("ab,ibc->iac", S.vectors, acc) @ S0.vectors.conj().T
    return stack + comp[:, None, None] * np.eye(D)[None, :, :]
