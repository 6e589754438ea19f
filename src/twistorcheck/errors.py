"""Exception hierarchy for the toolkit.

Errors split into two families: input/precondition problems (bad patch data,
points too close to the boundary, ...) and mathematical cross-check failures
(two independent computation routes disagreeing).  The latter are the most
valuable failure mode of the whole toolkit: they signal a convention bug, not
a user mistake.
"""


class TwistorcheckError(Exception):
    """Base class for all errors raised by this package."""


class IncompatibleStructure(TwistorcheckError):
    """Patch data is not finite, or violates J^2 = -Id, metric compatibility, or positivity."""


class DegeneratePivot(TwistorcheckError):
    """No coordinate vector left at a Gram-Schmidt step reaches the pivot tolerance, or E^T g E misses Id."""


class BoundaryProximity(TwistorcheckError):
    """A point is not interior to the patch's coordinate box, or has the wrong shape."""


class SingularMetric(TwistorcheckError):
    """Metric matrix is numerically non-invertible."""


class FrameDiscontinuity(TwistorcheckError):
    """``evaluate_frame_field`` found a displaced frame with pivots other than its reference frame's."""


class CrossPathMismatch(TwistorcheckError):
    """Two independent computation routes disagree beyond tolerance."""


class WrongPatch(TwistorcheckError):
    """Operation requires a patch attribute the given patch does not carry."""


class ChartOverflow(TwistorcheckError):
    """Point left the validity region of the chart."""


class NotInSigma(TwistorcheckError):
    """Matrix does not anticommute with the reference complex structure."""
