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


class QuadratureError(Exception):
    """A step-refinement loop did not settle within its cap.

    Raised by spectral_flow.integrate_flow when halving ds has not
    stabilized the endpoint flow error after HALVING_CAP passes.
    """
