"""Reference forms of the sector transport in lpplab.quasilocal.

  einsum_recursion_step     one step of L^(m)_{iq} = sum_p c_{ip} R_p
                            L^(m-1)_{pq} as two `np.einsum` contractions,
                            in complex arithmetic;
  full_space_mismatch       ||P1 - T P0 T^dagger|| with T embedded on the
                            whole volume and the norm taken there.

The library writes the first as a batched matmul and a tensordot in the
dtype of its inputs, and takes the second in span[B1, T B0]; both forms
agree with these to rounding.
"""

import numpy as np

from lpplab.operators import embed, operator_norm


def einsum_recursion_step(c, R_small, L):
    RL = np.einsum("pab,pqbc->pqac", np.asarray(R_small, complex), np.asarray(L, complex))
    return np.einsum("ip,pqac->iqac", np.asarray(c, complex), RL)


def full_space_mismatch(path, T_op):
    """The projector mismatch of impurity_transform on the full volume."""
    T_full = embed(T_op, path.graph)
    P0 = path.sector(0.0).projector
    P1 = path.sector(1.0).projector
    return operator_norm(P1 - T_full @ P0 @ T_full.conj().T)
