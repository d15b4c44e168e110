"""Exception types shared across the package."""


class KZSketchError(Exception):
    """Base class for all structured errors raised by this package."""


class DimensionMismatch(KZSketchError):
    """Operands were built over incompatible shapes or configurations."""


class InvalidInput(KZSketchError):
    """A value violates a documented precondition (non-finite, out of grid, ...)."""


class SketchFormatError(KZSketchError):
    """A serialized sketch is truncated or corrupt.

    ``bit_offset`` is the position (in bits from the start of the payload)
    at which parsing failed, when known.
    """

    def __init__(self, message: str, bit_offset: int | None = None):
        super().__init__(message if bit_offset is None
                         else f"{message} (bit offset {bit_offset})")
        self.bit_offset = bit_offset
