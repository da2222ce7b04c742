"""Case retrieval and case similarity.

The case model lives in ``knowledge`` beside ``Rule``: a case template
is a rule filed under a taxonomy path, with the same sufficiency and
necessity grading, and the engine fires the templates a precedent link
instantiates exactly as it fires rules.  This module holds what only
cases have.  ``retrieve`` finds the templates under a taxonomy node
that pass the engine's screening gate, and ``case_similarity`` compares
two fired cases by the premise profiles their ``case-instance`` proof
nodes keep.  ``CaseTemplate`` and ``PrecedentLink`` are re-exported
from ``knowledge``, their home, for the benchmark's inputs, which
import them from here.
"""

from __future__ import annotations

from .calculus import similarity_from_distance
from .engine import ProofNode, QueryConfig, context_passes
from .errors import DomainError, UnboundRoleError, UnknownPathError
from .knowledge import (
    CaseLibrary,
    CaseTemplate,
    Path,
    PrecedentLink,
    World,
    format_path,
    parse_path,
    substitute,
)

__all__ = [
    "CaseTemplate",
    "PrecedentLink",
    "retrieve",
    "case_similarity",
]


def retrieve(
    library: CaseLibrary,
    path: Path | str,
    world: World,
    config: QueryConfig | None = None,
    *,
    diagnostics: list[str] | None = None,
) -> list[CaseTemplate]:
    """Templates under a taxonomy node that pass context screening.

    Retrieval at an ancestor node sees a superset of what any of its
    descendants sees.  An undeclared path is an error rather than an
    empty answer, so typos do not read as absent knowledge.  A template
    whose context has a role the world leaves unbound is inactive: it is
    left out unscreened and, given ``diagnostics``, noted there.
    """
    if isinstance(path, str):
        path = parse_path(path)
    if not library.has_path(path):
        raise UnknownPathError(f"taxonomy path {format_path(path)} is not declared")
    if config is None:
        config = QueryConfig()
    kept = []
    for t in library.templates_at(path):
        try:
            context = tuple(substitute(atom, world.roles) for atom in t.context)
        except UnboundRoleError as err:
            if diagnostics is not None:
                diagnostics.append(f"case {t.identifier} inactive: {err}")
            continue
        if context_passes(context, world, config):
            kept.append(t)
    return kept


# The paper's claim that case similarity is the complement of distance, on fired cases.
def case_similarity(a: ProofNode, b: ProofNode) -> float:
    """Similarity of two fired cases: the complement of their distance.

    A ``case-instance`` node's premise profile is its children's
    results, the premise values the engine conjoined when the case
    fired; the distance is the mean midpoint gap between two profiles.
    Profiles must align premise for premise, so this compares two
    firings of templates with equally many premises (typically the same
    template in different worlds).
    """
    for node in (a, b):
        if node.kind != "case-instance":
            raise DomainError(f"{node.kind} node for {node.goal} is not a fired case")
    if len(a.children) != len(b.children):
        raise DomainError(
            f"profiles of unequal length: {len(a.children)} vs {len(b.children)}"
        )
    # A plain loop, as in ``calculus``: ``sum`` rounds differently from CPython 3.12 on.
    total = 0.0
    for x, y in zip(a.children, b.children):
        total += abs(x.result.midpoint() - y.result.midpoint())
    return similarity_from_distance(total / len(a.children))
