"""Exception types shared across the package."""


class MulticxError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(MulticxError):
    pass


class DegreeMismatch(MulticxError):
    pass


class SpaceMismatch(MulticxError):
    pass


class NotContained(MulticxError):
    pass


class NotWellDefined(MulticxError):
    pass


class NotSquareZero(MulticxError):
    pass


class NotInvertible(MulticxError):
    pass


class InvalidMulticomplex(MulticxError):
    """A family that fails the multicomplex relations; `report` is the
    `ValidationReport` that found it, when there is one."""

    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)


class BadConstantTerm(MulticxError):
    pass


class NotJacobi(MulticxError):
    """A pair that fails the structure equations; `defects` holds the two
    exact defects (first, second) of `derham.jacobi_defects`."""

    def __init__(self, message, defects=None):
        self.defects = defects
        super().__init__(message)


class ParseError(MulticxError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
