"""possum: possibilistic rule- and case-based reasoning.

The package is layered bottom-up, and no module imports one above it:
``errors`` (the exception types) and ``calculus`` (interval
arithmetic); ``knowledge`` (atoms, rules, case templates and their
library, worlds); ``dsl`` (the textual language) and ``engine``
(screening, backward and forward inference); ``cbr`` (case retrieval
and case similarity) and ``revision`` (dependency-tracked belief
updates); ``cli`` (the ``possum`` command).
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
