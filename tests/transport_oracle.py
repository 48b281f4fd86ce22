"""Reference forms of the sector transport in lpplab.quasilocal.

  build_R_stack             the full-volume R_i^{<=T} = V (C o Phi_i)
                            V0^dagger + comp_i 1 as an (n_i, D, D) stack,
                            one lambda_i0 at a time on one thread;
  build_R                   the same for a single lambda_i0;
  faddeeva_factor           its factor W_i = V (C o Phi_i) and comp_i;
  gauss_truncated           the truncated Gaussian integral g_T(omega)
                            in closed form, through the Faddeeva
                            function;
  einsum_recursion_step     one step of L^(m)_{iq} = sum_p c_{ip} R_p
                            L^(m-1)_{pq} as two `np.einsum` contractions,
                            in complex arithmetic;
  loop_impurity_transform   T_l = sum_ij L_ij I_ji as d^2 embedded
                            matrices and dense products;
  full_space_mismatch       ||P1 - T P0 T^dagger|| with T embedded on the
                            whole volume and the norm taken there;
  sector_projector          the D x D projector B B^dagger of a sector;
  gaussian_filtered_projector
                            the full-time filter P_lambda = sum_kappa
                            e^{-(kappa-lam)^2/4a} Q_kappa from a spectrum.

The library takes Phi by a Gauss-Legendre rule in time, factored into
one real matrix product, localizes R from its factors without forming
the stack, writes the recursion as a batched matmul and a tensordot in
the dtype of its inputs, takes T_l as one index contraction, and takes
the mismatch in span[B1, T B0]; each form agrees with these to
rounding.
"""

import numpy as np
from embed_oracle import embed
from scipy.special import wofz

from lpplab.operators import embed_matrix, operator_norm


def gauss_truncated(omega, alpha, T):
    """sqrt(a/pi) int_{-T}^{T} e^{-a t^2} e^{i omega t} dt, closed form.

    Faddeeva form e^{-omega^2/4a} - e^{-aT^2} Re[e^{-i omega T} w(iz)] with
    z = sqrt(a) T + i omega / (2 sqrt(a)).  Im(iz) = sqrt(a) T > 0, where
    w is bounded, so no omega overflows and none needs a cutoff: far off
    resonance the value decays like 2 e^{-aT^2} sin(omega T) / omega.
    """
    omega = np.asarray(omega, dtype=float)
    ra = np.sqrt(alpha)
    iz = -omega / (2 * ra) + 1j * ra * T
    edge = np.real(np.exp(-1j * T * omega) * wofz(iz))
    return np.exp(-(omega**2) / (4 * alpha)) - np.exp(-alpha * T * T) * edge


def faddeeva_factor(S0, S, C, shift, params):
    """(W, comp) for one lambda_i0, shift = lambda_i0 - params.nodes, with
    every entry of Phi and comp from gauss_truncated: W = V (C o Phi)."""
    alpha, T, a = params.alpha, params.T, params.a
    omega = S.values[:, None] - S0.values[None, :]
    phi = sum(w * gauss_truncated(omega + s, alpha, T) for w, s in zip(a, shift))
    comp = np.sum(a * (np.exp(-(shift**2) / (4 * alpha)) - gauss_truncated(shift, alpha, T)))
    return S.vectors @ (C * phi), float(comp)


def build_R_stack(S0, S, lam0s, params, overlap=None):
    """(stack, diagnostics) with stack[i] = R_i^{<=T} on the full volume."""
    if params.nodes is None or params.a is None:
        raise ValueError("filter coefficients not solved; call with_coefficients")
    lam0s = np.asarray(lam0s, dtype=float)
    C = overlap if overlap is not None else S.vectors.conj().T @ S0.vectors
    stack, comps = [], []
    for lam0 in lam0s:
        W, comp = faddeeva_factor(S0, S, C, lam0 - params.nodes, params)
        R = W @ S0.vectors.conj().T
        stack.append(R + comp * np.eye(len(R)))
        comps.append(comp)
    return np.array(stack), {"sum_a": float(params.a.sum()),
                             "tail_compensation": np.array(comps)}


def build_R(S0, S, lam0, params, overlap=None):
    stack, diag = build_R_stack(S0, S, [lam0], params, overlap=overlap)
    diag["tail_compensation"] = float(diag["tail_compensation"][0])
    return stack[0], diag


def einsum_recursion_step(c, R_small, L):
    RL = np.einsum("pab,pqbc->pqac", np.asarray(R_small, complex), np.asarray(L, complex))
    return np.einsum("ip,pqac->iqac", np.asarray(c, complex), RL)


def loop_impurity_transform(L, dims, pos, d0):
    """sum_ij L[i, j] I_ji with I_ji = |j><i| on the impurity factor (the
    fastest axis of site `pos`, after a bulk factor of dimension d0)."""
    d = L.shape[0]
    T = np.zeros(L.shape[2:], dtype=np.result_type(L, float))
    for i in range(d):
        for j in range(d):
            ketbra = np.zeros((d, d))
            ketbra[j, i] = 1.0
            T += L[i, j] @ embed_matrix(np.kron(np.eye(d0), ketbra), (pos,), dims)
    return T


def full_space_mismatch(path, T_op):
    """The projector mismatch of impurity_transform on the full volume."""
    T_full = embed(T_op, path.graph)
    P0 = sector_projector(path.sector(0.0))
    P1 = sector_projector(path.sector(1.0))
    return operator_norm(P1 - T_full @ P0 @ T_full.conj().T)


def sector_projector(sec):
    """P = B B^dagger for a sector with orthonormal basis columns B."""
    return sec.basis @ sec.basis.conj().T


def gaussian_filtered_projector(S, lam, alpha):
    """P_lambda = sum_kappa e^{-(kappa-lam)^2/4a} Q_kappa, from the spectrum.

    This is the full-time filter sqrt(a/pi) int e^{-a t^2} e^{it(H-lam)} dt
    with the Gaussian weights evaluated in the eigenbasis.
    """
    S.require_complete("gaussian_filtered_projector")
    w = np.exp(-((S.values - lam) ** 2) / (4 * alpha))
    return (S.vectors * w) @ S.vectors.conj().T
