"""Full-space oracle for lpplab.models.tqo_check.

  full_space_tqo_check   PAP = zP checked on the whole volume: A is
                         embedded densely and sandwiched by the
                         ground projector P, z = tr(PAP) / tr(P) and the
                         deviation is ||PAP - zP||.

tqo_check does the same on the ground-space compression B^dag A B; the
two agree because P = BB^dag with B an isometry.
"""

import numpy as np

from lpplab.exceptions import NotApplicable
from lpplab.operators import embed_matrix, operator_norm


def full_space_tqo_check(P, A, Lstar, geom):
    """(z, deviation) for PAP = zP, with P the full-space ground projector."""
    if not geom.in_square(A.support, Lstar):
        raise NotApplicable(
            f"support {A.support} does not fit a side-{Lstar} window"
        )
    dims = (2,) * (2 * geom.L * geom.L)
    A_full = embed_matrix(A.matrix, A.support, dims)
    PAP = P @ A_full @ P
    trP = np.trace(P).real
    z = complex(np.trace(PAP) / trP)
    deviation = operator_norm(PAP - z * P)
    return z, float(deviation)
