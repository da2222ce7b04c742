"""possum: possibilistic rule- and case-based reasoning.

The package is layered bottom-up: ``calculus`` (interval arithmetic),
``knowledge`` (atoms, rules, worlds), ``dsl`` (the textual language),
``cbr`` (hierarchical case library, retrieval and case similarity),
``engine`` (backward and forward inference), ``revision``
(dependency-tracked belief updates), ``cli`` (the ``possum`` command).
"""

from .calculus import (
    CertaintyInterval,
    ConflictPolicy,
    TNormFamily,
    TOTAL_IGNORANCE,
)

__version__ = "0.1.0"

__all__ = [
    "CertaintyInterval",
    "ConflictPolicy",
    "TNormFamily",
    "TOTAL_IGNORANCE",
    "__version__",
]
