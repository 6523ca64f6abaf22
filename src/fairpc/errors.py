"""Exception types shared across the package."""


class FairpcError(Exception):
    """Base class for all fairpc errors."""


# ---- instance validation ----

class MatrixError(FairpcError):
    pass


class EmptyRowOrColumn(MatrixError):
    pass


class NegativeEntry(MatrixError):
    pass


class AllZero(MatrixError):
    pass


class DuplicateEntry(MatrixError):
    pass


class DimensionMismatch(MatrixError):
    pass


class MatrixMarketFormatError(MatrixError):
    pass


class WidthOverflow(MatrixError):
    pass


# ---- configuration ----

class ConfigError(FairpcError):
    pass


class EpsilonOutOfRange(ConfigError):
    pass


class InvalidAlpha(ConfigError):
    pass


class InvalidBeta(ConfigError):
    pass


class DerivedConstantOverflow(ConfigError):
    """A run constant derived from (m, n, rho, epsilon) leaves float range."""


# ---- math domain ----

class DomainError(FairpcError):
    pass


class NonPositiveCoordinate(DomainError):
    pass


class NegativeCoordinate(DomainError):
    pass


# ---- solver internals: these indicate an implementation bug, never bad input ----

class SolverAssertion(FairpcError):
    pass


class TruncationDomainViolation(SolverAssertion):
    pass


class FeasibilityViolation(SolverAssertion):
    pass


class CertificateShortfall(SolverAssertion):
    pass


class LocalityViolation(SolverAssertion):
    pass


class UnsupportedStructure(FairpcError):
    pass


class NonConvergence(FairpcError):
    pass
