"""The package's exception types: ToricRegionsError and the subclasses its code raises."""


class ToricRegionsError(Exception):
    """Base class for all package-specific errors."""


class ZeroGenerator(ToricRegionsError):
    """(p, q) = (0, 0) does not define a line."""


class NonPositiveDelta(ToricRegionsError):
    """The inclusion radius delta must be strictly positive and finite."""


class NonFinitePoint(ToricRegionsError, ValueError):
    """A log point with a NaN or infinite coordinate; the message names the argument."""


class ParallelGenerators(ToricRegionsError):
    """Two generators define the same line through the origin."""


class NoCrossing(ToricRegionsError):
    """A ray does not cross the requested boundary curve inside the positive quadrant."""


class ConstructionFailed(ToricRegionsError):
    """A polyline step could not be completed (delta too small for this fan);
    the message is "<step>: <reason>"."""


class ArcsDontMeet(ToricRegionsError):
    """Closing arcs do not meet between their terminals (delta too small)."""


class DeltaTooSmall(ToricRegionsError):
    """Construction or its validation battery failed at this delta.

    ``report`` is the full ``validate_region`` report when validation
    failed, naming every check with its result and witness; None when the
    construction itself failed.
    """

    report: dict | None = None

    def __init__(self, check: str, detail: str = ""):
        super().__init__(f"{check}" + (f": {detail}" if detail else ""))
        self.check = check
        self.detail = detail


class UnsupportedFan(ToricRegionsError):
    """Fan has no generators or a non-integer one, or violates the
    slope-class assumption and matches no special case."""


class OutOfBand(ToricRegionsError):
    """Point does not lie in the queried band of nested convex regions."""


class MonomialOverflow(ToricRegionsError):
    """A monomial exponent past its log-magnitude cap, or an exponential beyond the float range."""


class StepCollapse(ToricRegionsError):
    """Integrator step fell below the minimum without passing validation."""


class WitnessFailed(ToricRegionsError):
    """A reachability witness could not be built.

    ``leg`` names the failing step: "precondition" when an endpoint lies
    outside the region, "leg1_flow" when the flow to (1,1) does not converge,
    "full-plane straight run" when that leg fails velocity validation, or
    "route" when no boundary route to a strip or gap target both arrives
    and validates.  A failed route's ``detail`` names the last candidate's
    error: the description of a leg that failed validation, "arrival" when
    the legs ended away from the target, or the ``NoCrossing`` of a walk
    whose x-space line left the positive quadrant.
    """

    def __init__(self, leg: str, detail: str = ""):
        super().__init__(f"{leg}" + (f": {detail}" if detail else ""))
        self.leg = leg
        self.detail = detail
