"""Hierarchical case library, retrieval and case similarity.

Cases are stored as *templates*: parameterised rules filed under a
taxonomy path, carrying the same sufficiency/necessity grading as
ordinary rules.  A precedent differs from a rule only in how it is
found (by searching a subtree of the taxonomy) and in how its premises
are read (as the profile of a past decided situation to be compared
against the present one).  The engine indexes the templates a
precedent link instantiates next to the rules and fires them through
the same gate, detachment and aggregation as everything else; case
similarity reads the premise profiles of the ``case-instance`` proof
nodes that firing leaves behind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from .calculus import CertaintyInterval, TNormFamily, antecedent_eval, similarity_from_distance
from .errors import DomainError, UnboundRoleError, UnknownPathError
from .knowledge import Atom, World, lookup, substitute

if TYPE_CHECKING:
    from .engine import ProofNode, QueryConfig

__all__ = [
    "CaseTemplate",
    "CaseLibrary",
    "PrecedentLink",
    "parse_path",
    "format_path",
    "retrieve",
    "case_similarity",
    "context_passes",
]

Path = tuple[str, ...]
Evaluator = Callable[[Atom], CertaintyInterval]


def parse_path(text: str) -> Path:
    """Split ``defense/anti-trust`` into its segments."""
    parts = tuple(p for p in text.strip().split("/") if p)
    if not parts:
        raise DomainError(f"empty taxonomy path {text!r}")
    return parts


def format_path(path: Path) -> str:
    return "/".join(path) if path else "/"


@dataclass(frozen=True, slots=True)
class CaseTemplate:
    """A decided case, generalised over its role variables."""

    identifier: str
    path: Path
    roles: tuple[str, ...]
    context: tuple[Atom, ...]
    antecedents: tuple[Atom, ...]
    consequent: Atom
    sufficiency: float
    necessity: float
    family: TNormFamily

    def __post_init__(self) -> None:
        if not self.antecedents:
            raise DomainError(f"case {self.identifier} has no premises")


@dataclass(frozen=True, slots=True)
class PrecedentLink:
    """Marks a predicate as arguable from precedent.

    The link instantiates the templates filed under ``path`` that
    conclude ``target_predicate`` (``KnowledgeBase.linked_templates``);
    the engine combines the contributions of those that fire for a goal
    with ``family``'s dual conorm.  At most one link per predicate.
    """

    target_predicate: str
    path: Path
    family: TNormFamily


@dataclass(slots=True)
class CaseLibrary:
    """Case templates filed under declared taxonomy paths."""

    paths: set[Path] = field(default_factory=set)
    templates: dict[str, CaseTemplate] = field(default_factory=dict)

    def declare_path(self, path: Path) -> None:
        self.paths.add(tuple(path))

    def add(self, template: CaseTemplate) -> None:
        if template.identifier in self.templates:
            raise DomainError(f"duplicate case identifier {template.identifier}")
        self.templates[template.identifier] = template

    def has_path(self, path: Path) -> bool:
        """True for the root, any declared path, and any ancestor of one."""
        if not path:
            return True
        return any(declared[: len(path)] == tuple(path) for declared in self.paths)

    def templates_at(self, path: Path) -> list[CaseTemplate]:
        """Templates filed at or below a node, ordered by (path, identifier)."""
        node = tuple(path)
        found = [t for t in self.templates.values() if t.path[: len(node)] == node]
        found.sort(key=lambda t: (t.path, t.identifier))
        return found


def context_passes(
    context: tuple[Atom, ...],
    world: World,
    config: "QueryConfig",
    fetch: Evaluator,
    on_unbound: Callable[[UnboundRoleError], None] | None = None,
) -> bool:
    """The screening gate that admits rules and case templates alike.

    Screening is a shallow read through ``fetch``, never a proof, and
    grades the joint context with the most liberal conjunction (min), so
    the gate fails on the weakest atom alone, not on the interaction of
    several weak ones.  A context the world cannot even bind means the
    rule or case is about some other situation: inactive, and reported
    to ``on_unbound``.
    """
    if not context:
        return True
    values = []
    for atom in context:
        try:
            ground = substitute(atom, world.roles)
        except UnboundRoleError as err:
            if on_unbound is not None:
                on_unbound(err)
            return False
        values.append(fetch(ground))
    joint = antecedent_eval(TNormFamily.T3, values)
    return joint.lower >= config.context_threshold


def retrieve(
    library: CaseLibrary,
    path: Path | str,
    world: World,
    config: "QueryConfig | None" = None,
    *,
    diagnostics: list[str] | None = None,
) -> list[CaseTemplate]:
    """Templates under a taxonomy node that pass context screening.

    Retrieval at an ancestor node sees a superset of what any of its
    descendants sees.  An undeclared path is an error rather than an
    empty answer, so typos do not read as absent knowledge.  A template
    whose context has a role the world leaves unbound is screened out
    and, given ``diagnostics``, noted there once.
    """
    if isinstance(path, str):
        path = parse_path(path)
    if not library.has_path(path):
        raise UnknownPathError(f"taxonomy path {format_path(path)} is not declared")
    if config is None:
        from .engine import QueryConfig

        config = QueryConfig()
    fetch = lambda atom: lookup(world, atom)
    return [
        t
        for t in library.templates_at(path)
        if context_passes(
            t.context,
            world,
            config,
            fetch,
            on_unbound=lambda err, t=t: _note(
                diagnostics, f"case {t.identifier} inactive: {err}"
            ),
        )
    ]


def _note(diagnostics: list[str] | None, message: str) -> None:
    if diagnostics is not None and message not in diagnostics:
        diagnostics.append(message)


def case_similarity(a: "ProofNode", b: "ProofNode") -> float:
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
    gaps = [
        abs(x.result.midpoint() - y.result.midpoint())
        for x, y in zip(a.children, b.children)
    ]
    return similarity_from_distance(sum(gaps) / len(gaps))
