"""Exception types shared across the package.

Every mathematically meaningful rejection gets its own class so callers
(and the CLI pipeline) can map failures to named report checks instead of
parsing message strings.
"""


class DilationError(Exception):
    """Base class for all package errors.

    ``failed_check`` is the ``(name, code)`` of the report check that the
    pipeline records as failed when the error escapes a stage, with the
    measured ``residual`` where the error has one and inf otherwise.
    """

    failed_check = ("pipeline", "pipeline.error")
    residual = float("inf")


class InvalidInput(DilationError):
    """Malformed numerical input: wrong shape, non-finite entries, bad exponent."""


# -- finite algebra -----------------------------------------------------------

class AssociativityViolation(DilationError):
    failed_check = ("group table valid", "valid.group")

    def __init__(self, s: int, t: int, u: int):
        super().__init__(f"associativity fails at triple ({s}, {t}, {u})")
        self.triple = (s, t, u)


class NoIdentity(DilationError):
    failed_check = ("group table valid", "valid.group")

    def __init__(self):
        super().__init__("table has no identity element")


class NoInverse(DilationError):
    failed_check = ("group table valid", "valid.group")

    def __init__(self, s: int):
        super().__init__(f"element {s} has no two-sided inverse")
        self.element = s


class NormalizationViolation(DilationError):
    failed_check = ("multiplier valid", "valid.multiplier")

    def __init__(self, s: int):
        super().__init__(f"multiplier not 1 on (e,{s}) or ({s},e)")
        self.element = s


class ModulusViolation(DilationError):
    failed_check = ("multiplier valid", "valid.multiplier")

    def __init__(self, s: int, t: int, modulus: float):
        super().__init__(f"|omega({s},{t})| = {modulus!r}, expected 1")
        self.pair = (s, t)
        self.modulus = modulus


class CocycleViolation(DilationError):
    failed_check = ("multiplier valid", "valid.multiplier")

    def __init__(self, s: int, t: int, u: int, residual: float):
        super().__init__(f"cocycle identity fails at ({s}, {t}, {u}), residual {residual:.3e}")
        self.triple = (s, t, u)
        self.residual = residual


class ActionViolation(DilationError):
    """Point map is not a unital, compatible, bijective action."""

    failed_check = ("action valid", "valid.action")


# -- operator-valued measures -------------------------------------------------

class NonHilbertNorm(DilationError):
    """Operation requires the Euclidean norm on the target space."""

    failed_check = ("Euclidean target required", "hilbert.applicability")


class NonUnitaryRep(DilationError):
    failed_check = ("representation unitary on l2", "hilbert.applicability")

    def __init__(self, s: int, residual: float):
        super().__init__(f"representation element {s} is not unitary, residual {residual:.3e}")
        self.element = s
        self.residual = residual


class WindowCountMismatch(DilationError):
    failed_check = ("component shapes", "valid.shapes")

    def __init__(self, windows: int, duals: int):
        super().__init__(f"{windows} windows but {duals} dual functionals")
        self.counts = (windows, duals)


# -- representations and systems ----------------------------------------------

class UnitViolation(DilationError):
    failed_check = ("representation unit", "valid.rep.unit")

    def __init__(self, residual: float):
        super().__init__(f"matrix at the identity is not I, residual {residual:.3e}")
        self.residual = residual


class MultiplierRelationViolation(DilationError):
    failed_check = ("representation product relation", "valid.rep.relation")

    def __init__(self, s: int, t: int, residual: float):
        super().__init__(
            f"W_{s} W_{t} != omega({s},{t}) W_({s}{t}), residual {residual:.3e}")
        self.pair = (s, t)
        self.residual = residual


class NotIsometry(DilationError):
    failed_check = ("representation isometries", "valid.rep.isometry")

    def __init__(self, s: int, witness=None):
        super().__init__(f"representation element {s} is not an isometry")
        self.element = s
        self.witness = witness


class CovarianceViolation(DilationError):
    failed_check = ("system covariance on atoms", "valid.system.covariance")

    def __init__(self, s: int, atom: int, residual: float):
        super().__init__(
            f"covariance fails for element {s} at atom {atom}, residual {residual:.3e}")
        self.element = s
        self.atom = atom
        self.residual = residual


class ShapeMismatch(DilationError):
    """Component dimensions are inconsistent."""

    failed_check = ("component shapes", "valid.shapes")


# -- dilation construction ------------------------------------------------------

class SemigroupNotSupported(DilationError):
    failed_check = ("group required for dilation", "dilation.applicability")

    def __init__(self):
        super().__init__("dilation requires a group; table has non-invertible elements")


class EnumerationCapExceeded(DilationError):
    def __init__(self, size: int, cap: int):
        super().__init__(f"subset enumeration over {size} indices exceeds cap {cap}")
        self.size = size
        self.cap = cap


class ClosureViolation(DilationError):
    failed_check = ("dilation operators stay in the dilation space",
                    "dilation.closure")

    def __init__(self, op: str, residual: float):
        super().__init__(f"{op} does not map the dilation space into itself, "
                         f"residual {residual:.3e}")
        self.op = op
        self.residual = residual


class NotIdempotent(DilationError):
    failed_check = ("rho(Omega) idempotent", "restriction.idempotent")

    def __init__(self, residual: float):
        super().__init__(f"rho(Omega) is not idempotent, residual {residual:.3e}")
        self.residual = residual


class NotInjective(DilationError):
    failed_check = ("dilation system injective", "induced.injective")

    def __init__(self, witness):
        super().__init__("dilation system is not injective on the span of the "
                         "generating measures")
        self.witness = witness


class NotPositive(DilationError):
    """The measure has a non-Hermitian or non-PSD atom."""

    failed_check = ("measure positive", "hilbert.applicability")


class BlockRankMismatch(DilationError):
    def __init__(self, g: int, atom: int):
        super().__init__(f"atom ranks differ along the orbit of {atom} under {g}; "
                         "covariance fails at rank level")
        self.element = g
        self.atom = atom


# -- framings -------------------------------------------------------------------

class ZeroWindow(DilationError):
    failed_check = ("windows nonzero", "valid.framing.windows")

    def __init__(self, j: int):
        super().__init__(f"window {j} is zero; the dilated norm would be degenerate")
        self.index = j


class SingularFrameOperator(DilationError):
    failed_check = ("frame operator invertible", "valid.framing.frame-op")

    def __init__(self):
        super().__init__("frame operator is numerically singular; retry with a new seed")


# -- scenario files ---------------------------------------------------------------

class ParseError(DilationError):
    def __init__(self, line: int, col: int, reason: str):
        super().__init__(f"parse error at line {line}, column {col}: {reason}")
        self.line = line
        self.col = col


class SchemaError(DilationError):
    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


class ShapeError(DilationError):
    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


class InvalidParams(DilationError):
    """Generator parameters out of range or unknown kind."""
