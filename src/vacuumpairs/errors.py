"""The base class of every failure that the CLI maps to exit code 1.

It imports nothing, so that ``cli`` can catch these failures without
importing the modules that raise them.
"""


class Failure(Exception):
    """A numerical or acceptance failure: an unreadable, invalid or empty
    species table, a root or quadrature that cannot converge, or a mode
    count that overflows.  Each subclass also derives from ``ValueError``
    or ``RuntimeError``."""
