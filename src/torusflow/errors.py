"""Exception types shared across the toolkit."""


class TorusflowError(Exception):
    """Base class for all toolkit errors."""


class SymmetryViolation(TorusflowError):
    """A full spectrum is not Hermitian-symmetric (`SpectralField.from_full`); a
    half-stored field can be non-Hermitian only on the planes k3 = 0 and k3 = n/2."""


class NotSolenoidal(TorusflowError):
    """An operation requiring a divergence-free field received one that is not."""


class GridMismatch(TorusflowError):
    """Fields on different grids were combined."""


class TimeGridMismatch(TorusflowError):
    """Trajectories with different snapshot times were combined."""


class IndexOutOfRange(TorusflowError):
    """Dyadic block index outside the partition range."""


class SupportViolation(TorusflowError):
    """Spectrum leaks outside the required dyadic annulus."""


class ZeroField(TorusflowError):
    """A ratio diagnostic received an identically zero field."""


class NonFiniteField(TorusflowError):
    """A field holds a NaN or infinite coefficient where finite data is required."""


class BadCutoff(TorusflowError):
    """Galerkin cutoff retains no dynamics or exceeds the resolved modes."""


class TooFewSnapshots(TorusflowError):
    """A residual needs more snapshots than the trajectory provides."""


class NonSolenoidalTest(TorusflowError):
    """A weak-form test function is not divergence-free."""


class DegenerateSequence(TorusflowError):
    """A convergence study needs at least four strictly decreasing scales."""


class ParseError(TorusflowError):
    """Config text is syntactically invalid."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class RangeError(TorusflowError):
    """Config value is outside its documented range."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class NumericalAbort(TorusflowError):
    """A run stopped on numerical grounds; `run` attaches the partial trajectory."""

    def __init__(self, message: str, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class CflViolation(NumericalAbort):
    """Advective CFL gate failed for the requested time step."""


class BlowUpDetected(NumericalAbort):
    """Numerical blow-up guard tripped."""
