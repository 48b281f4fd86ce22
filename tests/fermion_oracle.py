"""Free-fermion form of the transverse-field Ising chain's commutator norms.

On the open chain H = -J sum_j Z_j Z_{j+1} - h sum_j X_j the Jordan-Wigner
Majoranas

    g_{2j} = (prod_{k<j} X_k) Z_j,    g_{2j+1} = (prod_{k<j} X_k) Y_j

evolve linearly, dg/dt = M g, with M the real antisymmetric 2n x 2n
matrix M[2j, 2j+1] = -2h, M[2j+1, 2j+2] = -2J (the transposed entries
with the opposite sign).  Z_0 = g_0 and Y_0 = g_1 carry no string, so
with u(t) row 0 (z) or row 1 (y) of e^{tM}, A(t) = sum_k u_k g_k.  Z_b is
a product of the odd set {g_0 .. g_{2b}}, Y_b of {g_0 .. g_{2b-1},
g_{2b+1}}; a Majorana outside an odd product anticommutes with it and
one inside commutes, so [A(t), B] = 2 (sum over the outside k of u_k g_k) B,
whose norm is 2 |u restricted to the outside|:

    ||[Z_0(t), Z_b]|| = 2 (sum_{k > 2b} u_k^2)^{1/2},
    ||[Y_0(t), Y_b]|| = 2 (u_{2b}^2 + sum_{k > 2b+1} u_k^2)^{1/2}.

e^{tM} is taken from one `eigh` of the Hermitian iM, at size 2n; no
many-body state or spectrum is involved.  The form covers probes on
site 0 of an open chain only: an x probe (X_0 = -i g_0 g_1) is
bilinear, and a periodic chain's boundary term depends on the parity.
"""

import numpy as np


def majorana_generator(n, J, h):
    """The 2n x 2n real antisymmetric M with dg/dt = M g."""
    M = np.zeros((2 * n, 2 * n))
    for j in range(n):
        M[2 * j, 2 * j + 1] = -2.0 * h
    for j in range(n - 1):
        M[2 * j + 1, 2 * j + 2] = -2.0 * J
    return M - M.T


def probe_commutator_norms(n, J, h, pauli, t):
    """{b: ||[P_0(t), P_b]||} for b = 1 .. n-1 and P the pauli "y" or "z"."""
    w, V = np.linalg.eigh(1j * majorana_generator(n, J, h))
    row = {"z": 0, "y": 1}[pauli]
    # e^{tM} = e^{-it (iM)}, real since M is
    u = ((V[row] * np.exp(-1j * t * w)) @ V.conj().T).real
    out = {}
    for b in range(1, n):
        if pauli == "z":
            outside = u[2 * b + 1 :]
        else:
            outside = np.concatenate([u[2 * b : 2 * b + 1], u[2 * b + 2 :]])
        out[b] = 2.0 * float(np.linalg.norm(outside))
    return out
