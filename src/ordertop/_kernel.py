"""The three names the benchmark tracer (``perfbench/``) reads.

The column reducers ``eliminate_unit_pivots`` and ``rank_mod2`` live in
``ordertop.homology``; ``active()`` and ``pure()`` both return that module,
and ``BACKEND`` is re-exported as ``ordertop.kernel_backend``.  The
benchmark revision (ROADMAP item 1) deletes this module.
"""

BACKEND = "pure"


def active():
    """The module that holds the column reducers."""
    from . import homology

    return homology


pure = active
