"""Exception hierarchy shared by all solver modules."""


class MuellerKitError(Exception):
    """Base class for all muellerkit errors."""


class InvariantMismatch(MuellerKitError):
    """Input/output Stokes invariants differ; no Lorentz map can connect them."""


class ConstraintViolation(MuellerKitError):
    """A parameter set fails its defining algebraic constraint."""


class DivisionByZero(MuellerKitError):
    """A ratio parametrization is undefined (denominator below tolerance)."""


class AntipodalInput(MuellerKitError):
    """Rotation family is singular for antipodal input/output directions."""


class LengthMismatch(MuellerKitError):
    """|S| and |S'| differ; no rotation can connect the pair."""


class HalfTurn(MuellerKitError):
    """Gibbs vector undefined for half-turn rotations (n0 = 0)."""


class InconsistentPairs(MuellerKitError):
    """Measurement pairs admit no common device."""


class DegenerateGeometry(MuellerKitError):
    """Pair geometry does not pin down the requested quantity."""


class SingularSystem(MuellerKitError):
    """Linear system is singular or too ill-conditioned to solve."""


class Rank1Violation(MuellerKitError):
    """Lifted monomial vector is inconsistent with any genuine root."""


class NoValidCandidate(MuellerKitError):
    """No sign assignment of the lifted solution validates on the data."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NoRealRoot(MuellerKitError):
    """Quadratic slice has no real solution."""


class NoConvergedRoot(MuellerKitError):
    """No candidate root solves every constraint to the requested tolerance."""


class OutOfDomain(MuellerKitError):
    """Requested parameters lie outside the admissible region."""


class RankDeficient(MuellerKitError):
    """Measurement stack does not determine all matrix entries."""

    def __init__(self, message, rank=None):
        super().__init__(message)
        self.rank = rank
