"""Exception types shared across the toolkit.

The CLI maps every ``WsnerError`` to exit code 1; usage problems are left to
argparse (exit code 2).
"""


class WsnerError(Exception):
    """Base class for all toolkit errors."""


class ParseError(WsnerError):
    """A file could not be parsed; the message names the file and line."""


class SchemaError(WsnerError):
    """Well-formed input carries a label or field outside the expected schema."""


class AlignmentError(WsnerError):
    """Two datasets that must be token-aligned are not."""


class EstimationError(WsnerError):
    """A statistical estimate has no defined value (e.g. no observations)."""


class NumericsError(WsnerError):
    """Training produced a non-finite value; signals divergence."""


class TransportError(WsnerError):
    """An HTTP request failed after retries."""


class ResponseDecodeError(WsnerError):
    """A response body did not match the expected shape; the message quotes
    the start of the offending part."""
