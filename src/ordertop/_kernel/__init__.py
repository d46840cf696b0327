"""The exact elimination kernel: one pure-Python column reducer in ``_pure``.

``BACKEND``, ``active()`` and ``pure()`` stay only because the benchmark
tracer (``perfbench/spans.py``) finds the kernel entry points through them.
"""

from . import _pure

BACKEND = "pure"


def active():
    """The kernel module."""
    return _pure


def pure():
    """The kernel module."""
    return _pure
