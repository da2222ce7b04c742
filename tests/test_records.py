"""The public record classes behave as plain value records.

Every record compares field-wise, equals nothing of another type, and
prints as ``Name(field=value, ...)``.  The frozen ones hash by their
fields and refuse assignment and deletion; the mutable ones are
unhashable.  Default containers are fresh for every instance.  The tuple
records equal no plain tuple, and both parse paths build them of their
own classes.
"""

import copy
import pickle

import pytest

from possum.calculus import CertaintyInterval, ConflictPolicy, TNormFamily
from possum.dsl import _declared_kb, _token_kb, render_kb
from possum.engine import ProofNode, QueryConfig, QueryResult
from possum.errors import DomainError
from possum.knowledge import (
    Atom,
    CaseLibrary,
    CaseTemplate,
    Fact,
    KnowledgeBase,
    PrecedentLink,
    Rule,
    ValidationReport,
    World,
)
from possum.revision import DependencyRecord

T2 = TNormFamily.T2
P = Atom("p", ("x",))
Q = Atom("q")
HALF = CertaintyInterval(0.5, 1.0)
QUARTER = CertaintyInterval(0.25, 1)
P_REPR = "Atom(predicate='p', arguments=('x',))"
Q_REPR = "Atom(predicate='q', arguments=())"
QUARTER_REPR = "CertaintyInterval(lower=0.25, upper=1.0)"
NODE = ProofNode(P, "fact", QUARTER, "s")
NODE_REPR = (
    f"ProofNode(goal={P_REPR}, kind='fact', result={QUARTER_REPR}, "
    "provenance='s', premise_interval=None, children=())"
)

# (make one instance, make an unequal one, repr of the first).
FROZEN = {
    "CertaintyInterval": (
        lambda: CertaintyInterval(0.25, 1),
        lambda: CertaintyInterval(0.25, 0.5),
        QUARTER_REPR,
    ),
    "Rule": (
        lambda: Rule("r1", (), (P,), Q, 0.9, 0.1, T2),
        lambda: Rule("r1", (), (P,), Q, 0.9, 0.1, T2, ("class",)),
        f"Rule(identifier='r1', context=(), antecedents=({P_REPR},), consequent={Q_REPR}, "
        "sufficiency=0.9, necessity=0.1, family=<TNormFamily.T2: 2>, rule_class=())",
    ),
    "CaseTemplate": (
        lambda: CaseTemplate("c1", ("d",), ("?x",), (), (P,), Q, 0.9, 0.0, T2),
        lambda: CaseTemplate("c1", ("d",), ("?x",), (), (P,), Q, 0.9, 0.0, TNormFamily.T3),
        f"CaseTemplate(identifier='c1', path=('d',), roles=('?x',), context=(), "
        f"antecedents=({P_REPR},), consequent={Q_REPR}, sufficiency=0.9, necessity=0.0, "
        "family=<TNormFamily.T2: 2>)",
    ),
    "PrecedentLink": (
        lambda: PrecedentLink("q", ("d",), T2),
        lambda: PrecedentLink("q", ("e",), T2),
        "PrecedentLink(target_predicate='q', path=('d',), family=<TNormFamily.T2: 2>)",
    ),
}

MUTABLE = {
    "Fact": (
        lambda: Fact(P, {"s": QUARTER}, QUARTER),
        lambda: Fact(P, {"s": QUARTER}, HALF),
        f"Fact(atom={P_REPR}, evidence={{'s': {QUARTER_REPR}}}, effective={QUARTER_REPR})",
    ),
    "CaseLibrary": (
        CaseLibrary,
        lambda: CaseLibrary({("d",)}),
        "CaseLibrary(paths=set(), templates={})",
    ),
    "World": (
        lambda: World("w"),
        lambda: World("w", epoch=1),
        "World(identifier='w', roles={}, facts={}, askables=set(), epoch=0, diagnostics=[])",
    ),
    "KnowledgeBase": (
        KnowledgeBase,
        lambda: KnowledgeBase(precedent_links={"q": PrecedentLink("q", ("d",), T2)}),
        "KnowledgeBase(rules={}, case_library=CaseLibrary(paths=set(), templates={}), "
        "precedent_links={})",
    ),
    "ValidationReport": (
        ValidationReport,
        lambda: ValidationReport(path_errors=["bad path"]),
        "ValidationReport(cycles=[], range_errors=[], role_errors=[], path_errors=[])",
    ),
    "QueryConfig": (
        QueryConfig,
        lambda: QueryConfig(conflict_policy=ConflictPolicy.LENIENT),
        "QueryConfig(context_threshold=0.5, conflict_policy=<ConflictPolicy.STRICT: 'strict'>)",
    ),
    "ProofNode": (
        lambda: ProofNode(P, "fact", QUARTER, "s"),
        lambda: ProofNode(P, "fact", QUARTER, "s", children=(NODE,)),
        NODE_REPR,
    ),
    "QueryResult": (
        lambda: QueryResult(P, QUARTER, NODE, [], [], {}),
        lambda: QueryResult(P, QUARTER, NODE, ["note"], [], {}),
        f"QueryResult(goal={P_REPR}, interval={QUARTER_REPR}, proof={NODE_REPR}, "
        "diagnostics=[], derived=[])",
    ),
    "DependencyRecord": (
        lambda: DependencyRecord(P, QUARTER, 0),
        lambda: DependencyRecord(P, QUARTER, 1),
        f"DependencyRecord(conclusion={P_REPR}, cached={QUARTER_REPR}, epoch=0)",
    ),
}

RECORDS = {**FROZEN, **MUTABLE}

# The tuple records: how to make one.
TUPLES = {"Atom": lambda: P}
TUPLES.update((name, FROZEN[name][0]) for name in ("Rule", "CaseTemplate", "PrecedentLink"))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr(name):
    make, _, text = RECORDS[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_is_field_wise(name):
    make, make_other, _ = RECORDS[name]
    one, same, other = make(), make(), make_other()
    assert one is not same
    assert one == same and not one != same
    assert one != other and not one == other
    assert one != object() and not one == "x"
    assert one.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_hash_by_fields(name):
    make, make_other, _ = FROZEN[name]
    assert hash(make()) == hash(make())
    assert len({make(), make(), make_other()}) == 2


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_mutable_records_are_unhashable(name):
    make, _, _ = MUTABLE[name]
    with pytest.raises(TypeError):
        hash(make())


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_refuse_assignment_and_deletion(name):
    make, _, text = FROZEN[name]
    record = make()
    field = text[text.index("(") + 1 : text.index("=")]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_copies_and_pickles_are_equal(name):
    make, _, _ = RECORDS[name]
    record = make()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record


def test_mutable_records_accept_assignment():
    world = World("w")
    world.epoch = 3
    assert world.epoch == 3


def test_interval_bounds_become_floats():
    interval = CertaintyInterval(0, 1)
    assert type(interval.lower) is float and type(interval.upper) is float


def test_keywords_and_positions_build_the_same_record():
    assert Rule("r", (), (P,), Q, 0.9, 0.1, T2, ()) == Rule(
        identifier="r",
        context=(),
        antecedents=(P,),
        consequent=Q,
        sufficiency=0.9,
        necessity=0.1,
        family=T2,
    )
    assert World("w", {}, {}, set(), 0, {}) == World(identifier="w")
    assert QueryConfig(0.5, ConflictPolicy.STRICT) == QueryConfig()
    assert ProofNode(P, "fact", QUARTER, "s", None, ()) == NODE


def test_default_containers_are_fresh_per_instance():
    one, two = World("a"), World("b")
    assert one.roles is not two.roles
    assert one.facts is not two.facts
    assert one.askables is not two.askables
    assert one.diagnostics is not two.diagnostics
    assert one.log is not two.log
    kb_one, kb_two = KnowledgeBase(), KnowledgeBase()
    assert kb_one.rules is not kb_two.rules
    assert kb_one.case_library is not kb_two.case_library
    assert kb_one.precedent_links is not kb_two.precedent_links
    assert kb_one.case_library.paths is not kb_two.case_library.paths
    assert kb_one.case_library.templates is not kb_two.case_library.templates
    report_one, report_two = ValidationReport(), ValidationReport()
    for name in ("cycles", "range_errors", "role_errors", "path_errors"):
        assert getattr(report_one, name) is not getattr(report_two, name)


def test_query_result_equality_and_repr_ignore_the_goal_table():
    table = {P: NODE}
    with_table = QueryResult(P, QUARTER, NODE, [], [], table)
    without = QueryResult(P, QUARTER, NODE, [], [], {})
    assert with_table == without
    assert repr(with_table) == repr(without)
    assert with_table.graph is table


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CertaintyInterval("0", 1), "interval bounds must be numbers, got '0', 1"),
        (lambda: CertaintyInterval(0.75, 0.5), "invalid certainty interval [0.75, 0.5]"),
        (lambda: Rule("r", (), (), Q, 0.9, 0.1, T2), "rule r has no antecedents"),
        (
            lambda: CaseTemplate("c", ("d",), (), (), (), Q, 0.9, 0.0, T2),
            "case c has no premises",
        ),
        (lambda: QueryConfig(1.5), "context threshold 1.5 outside [0, 1]"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("name", sorted(TUPLES))
def test_tuple_records_equal_no_plain_tuple(name):
    record = TUPLES[name]()
    plain = tuple(record)
    assert type(plain) is tuple and hash(plain) == hash(record)
    assert not record == plain and not plain == record
    assert record != plain and plain != record


def test_both_parse_paths_build_records_of_their_own_classes():
    kb = KnowledgeBase(
        rules={"r1": Rule("r1", (Q,), (P,), Q, 0.9, 0.1, T2, ("class",))},
        case_library=CaseLibrary(
            {("d",)}, {"c1": CaseTemplate("c1", ("d",), ("?x",), (), (P,), Q, 0.9, 0.0, T2)}
        ),
        precedent_links={"q": PrecedentLink("q", ("d",), T2)},
    )
    text = render_kb(kb)
    for parsed in (_declared_kb(text), _token_kb(text)):
        assert parsed == kb
        (rule,), (case,), (link,) = (
            parsed.rules.values(), parsed.case_library.templates.values(),
            parsed.precedent_links.values(),
        )
        assert (type(rule), type(case), type(link)) == (Rule, CaseTemplate, PrecedentLink)
        atoms = {*rule.context, *rule.antecedents, rule.consequent, *parsed.atoms}
        assert set(map(type, atoms)) == {Atom}
