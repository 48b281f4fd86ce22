"""Exception types shared across the package."""


class GapClosed(Exception):
    """The protected sector touched the rest of the spectrum.

    Carries the path parameter at which the closure was detected.
    """

    def __init__(self, s, gap=None):
        self.s = s
        self.gap = gap
        msg = f"sector gap closed at s={s!r}"
        if gap is not None:
            msg += f" (gap={gap:.3e})"
        super().__init__(msg)


class StepTooLarge(Exception):
    """A path step produced a (near-)singular sector overlap."""


class InsufficientData(Exception):
    """Too few usable points for a decay fit (need at least 3 above floor)."""


class NotApplicable(Exception):
    """The requested check's hypotheses are not met (e.g. probe geometry)."""


class EigensolverFailed(Exception):
    """LAPACK or ARPACK produced no eigenpairs.

    Carries the operator's dimension, dtype and the solver mode; the
    solver's own exception is chained as __cause__.
    """

    def __init__(self, dim, dtype, mode):
        self.dim = dim
        self.dtype = dtype
        self.mode = mode
        super().__init__(f"{mode} eigensolver failed on a {dtype} operator of dim {dim}")


class UnitarityLost(Exception):
    """An integrated flow drifted from unitarity beyond UNITARITY_TOL.

    Carries the truncation radius (None for the untruncated flow) and the
    defect ||U^dag U - 1||.
    """

    def __init__(self, l, defect):
        self.l = l
        self.defect = defect
        super().__init__(f"flow at radius l={l!r} lost unitarity: defect {defect:.3e}")
