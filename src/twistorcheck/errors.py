"""Exception hierarchy for the toolkit.

Every error is an input or precondition problem: bad patch data, a point
outside its patch, a frame or metric that cannot be built, a patch that lacks
what an operation needs.  A failed mathematical check is never an exception:
two routes that disagree give a residual, which the commands gate.
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


class WrongPatch(TwistorcheckError):
    """Operation requires a patch attribute the given patch does not carry."""


class NotInSigma(TwistorcheckError):
    """Matrix does not anticommute with the reference complex structure."""
