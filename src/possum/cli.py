"""The ``possum`` command.

Verbs: load (parse and validate), query (backward chaining), assert and
retract-source (edit a world file's evidence), cases (list precedents
under a taxonomy node), explain (query with the full proof tree),
saturate (forward chaining), repl (interactive session).

Exit codes: 0 on success, 1 for user and knowledge-base errors (bad
arguments, parse or validation failures, unknown paths), 2 when strict
policy met conflicting evidence.

Output is plain deterministic text; set POSSUM_COLOR=never to strip the
little ANSI colour that is applied when stdout is a terminal.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .calculus import CertaintyInterval, ConflictPolicy
from .cbr import retrieve
from .engine import (
    QueryConfig,
    QueryResult,
    QuerySession,
    explain,
    prove,
    result_to_dict,
)
from .errors import ConflictError, ParseError, PossumError, UnknownPathError
from .dsl import (
    _IDENT,
    load_kb,
    load_world,
    parse_evidence_text,
    parse_goal,
    parse_interval_text,
    render_world,
    tokenize,
)
from .knowledge import (
    Atom,
    KnowledgeBase,
    World,
    assert_evidence,
    format_path,
    lookup,
    parse_path,
    retract_evidence,
    substitute,
    validate,
)


def _color_enabled() -> bool:
    mode = os.environ.get("POSSUM_COLOR", "auto")
    if mode == "never":
        return False
    return sys.stdout.isatty()


def _paint(text: str, code: str) -> str:
    if _color_enabled():
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _interval_str(interval: CertaintyInterval) -> str:
    return _paint(str(interval), "36")


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are user errors (exit 1); 2 is reserved for conflicts.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _threshold(text: str) -> float:
    """An ``--alpha`` value: a number in [0, 1]; nan fails the range test."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number in [0, 1]")
    return value


def build_parser() -> _Parser:
    parser = _Parser(
        prog="possum",
        description="Possibilistic rule- and case-based reasoning over certainty intervals.",
    )
    parser.add_argument("--version", action="version", version=f"possum {__version__}")
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="VERB")
    # Flags several verbs share, each declared once.
    policy = _Parser(add_help=False)
    policy.add_argument(
        "--tnorm-policy", choices=["strict", "lenient"], default="strict",
        help="raise on conflicting evidence (strict) or degrade to ignorance (lenient)",
    )
    alpha = _Parser(add_help=False)
    alpha.add_argument(
        "--alpha", type=_threshold, default=0.5, metavar="A",
        help="context activation threshold (default 0.5)",
    )
    output = _Parser(add_help=False)
    output.add_argument("--format", choices=["text", "json"], default="text", help="output format")
    querying = [policy, alpha, output]

    p = verbs.add_parser(
        "load", parents=[policy], help="parse and validate a knowledge base and worlds"
    )
    p.add_argument("kb", help="knowledge-base file")
    p.add_argument("worlds", nargs="*", help="world files")

    p = verbs.add_parser("query", parents=querying, help="prove one goal by backward chaining")
    p.add_argument("kb")
    p.add_argument("world")
    p.add_argument("goal", help='e.g. "(anti-trust-success ?raider ?target)"')
    p.add_argument("--trace", action="store_true", help="print the proof tree too")
    p.add_argument(
        "--interactive",
        action="store_true",
        help="prompt for askable facts the world does not settle",
    )

    p = verbs.add_parser(
        "explain", parents=querying, help="prove one goal and print its proof tree"
    )
    p.add_argument("kb")
    p.add_argument("world")
    p.add_argument("goal")

    p = verbs.add_parser("assert", parents=[policy], help="add evidence to a world file")
    p.add_argument("world")
    p.add_argument("atom", help='e.g. "(strong-political-lobby Marathon)"')
    p.add_argument("interval", help='e.g. "[0.8, 1]"')
    p.add_argument("--source", default="user")
    p.add_argument("--out", help="write here instead of back to the world file")

    p = verbs.add_parser(
        "retract-source", parents=[policy],
        help="withdraw one source's evidence from a world file",
    )
    p.add_argument("world")
    p.add_argument("atom")
    p.add_argument("source")
    p.add_argument("--out", help="write here instead of back to the world file")

    p = verbs.add_parser(
        "cases", parents=[alpha, policy], help="list case templates under a taxonomy node"
    )
    p.add_argument("kb")
    p.add_argument("path", help="taxonomy node, e.g. defense/anti-trust")
    p.add_argument("world", nargs="?", help="screen templates against this world")

    p = verbs.add_parser("saturate", parents=querying, help="derive every derivable conclusion")
    p.add_argument("kb")
    p.add_argument("world")

    p = verbs.add_parser(
        "repl", parents=[policy, alpha],
        help="interactive session over a knowledge base and world",
    )
    p.add_argument("kb")
    p.add_argument("world")

    return parser


def _config(args: argparse.Namespace) -> QueryConfig:
    return QueryConfig(args.alpha, _policy(args))


def _policy(args: argparse.Namespace) -> ConflictPolicy:
    return ConflictPolicy(args.tnorm_policy)


def _print_notes(diagnostics: list[str]) -> None:
    for note in diagnostics:
        print(_paint(f"note: {note}", "33"))


class _StdinAsker:
    """Asks stdin about the askable facts a query meets.

    At a terminal, a line that is not an interval is reported and asked
    again.  Piped input holds no reply to that report, only the lines
    meant for what follows, so there such a line declines the prompt
    and is kept in ``pending``; later prompts decline without reading
    until the repl takes the line to run as its next command.
    """

    def __init__(self) -> None:
        self.pending: str | None = None

    def __call__(self, atom: Atom) -> CertaintyInterval | None:
        while self.pending is None:
            try:
                raw = input(f"belief in {atom}? enter [l, u] or leave blank to skip: ")
            except EOFError:
                return None
            raw = raw.strip()
            if not raw:
                return None
            try:
                return parse_interval_text(raw)
            except PossumError as err:
                if sys.stdin.isatty():
                    print(f"could not read that interval ({err}); try again or leave blank")
                else:
                    self.pending = raw
        return None


def _run_query(args: argparse.Namespace, want_trace: bool) -> int:
    kb = load_kb(args.kb)
    world = load_world(args.world, _policy(args))
    asker = _StdinAsker() if getattr(args, "interactive", False) else None
    _answer(kb, world, args.goal, _config(args), asker, args.format, want_trace)
    return 0


def _answer(
    kb: KnowledgeBase, world: World, goal_text: str, config: QueryConfig,
    asker: _StdinAsker | None, form: str = "text", want_trace: bool = False,
) -> QueryResult:
    """Prove a goal, ``(not (atom))`` for its complement, and print the
    answer with its notes: the query and explain verbs and the repl's
    query and what-if all print through here."""
    goal, negated = parse_goal(goal_text)
    result = prove(kb, world, goal, config, asker)
    interval = result.interval.complement() if negated else result.interval
    shown_goal = f"(not {result.goal})" if negated else str(result.goal)
    if form == "json":
        import json  # here, not at the top: every other run starts without it
        payload = result_to_dict(result)
        payload["interval"] = [interval.lower, interval.upper]
        payload["goal"] = shown_goal
        if negated:
            payload["negated"] = True
        print(json.dumps(payload, indent=2, sort_keys=True))
        return result
    print(f"{shown_goal} = {_interval_str(interval)}")
    if negated:
        print("note: negated goal; interval is the complement of the positive answer")
    _print_notes(result.diagnostics)
    if want_trace:
        print(explain(result))
    return result


def _count(n: int, noun: str) -> str:
    return f"{n} {noun}" + ("" if n == 1 else "s")


def _cmd_load(args: argparse.Namespace) -> int:
    kb = load_kb(args.kb)
    print(
        f"{args.kb}: {_count(len(kb.rules), 'rule')}, "
        f"{_count(len(kb.case_library.templates), 'case')}, "
        f"{_count(len(kb.case_library.paths), 'taxonomy path')}, "
        f"{_count(len(kb.precedent_links), 'precedent link')}"
    )
    report = validate(kb)
    if not report.ok():
        for message in report.messages():
            print(f"validation: {message}", file=sys.stderr)
        return 1
    print("validation: ok")
    for world_file in args.worlds:
        world = load_world(world_file, _policy(args))
        print(
            f"{world_file}: world {world.identifier}, "
            f"{_count(len(world.facts), 'fact')}, "
            f"{_count(len(world.askables), 'askable')}"
        )
        _print_notes(world.diagnostics)
    return 0


def _check_source(source: str) -> None:
    """Refuse a source name the world file would not read back as one identifier."""
    try:
        tokens = tokenize(source, "<source>")
    except ParseError:
        tokens = None
    if tokens is None or tokens.kinds[0] != _IDENT or tokens.texts[0] != source:
        raise PossumError(f"evidence source {source!r} must be a single identifier")


def _cmd_assert(args: argparse.Namespace) -> int:
    _check_source(args.source)
    world = load_world(args.world, _policy(args))
    atom, negated = parse_goal(args.atom)
    if negated:
        raise PossumError("cannot assert a negated atom; assert the complement interval instead")
    interval = parse_interval_text(args.interval)
    ground = substitute(atom, world.roles)
    assert_evidence(world, ground, interval, args.source, _policy(args))
    return _write_back(args, world, ground)


def _write_back(args: argparse.Namespace, world: World, ground: Atom) -> int:
    """Write an edited world to ``--out`` or back to its file, and print
    the edited fact."""
    out = Path(args.out) if args.out else Path(args.world)
    out.write_text(render_world(world), encoding="utf-8")
    _print_edited(world, ground, f" (written to {out})")
    return 0


def _print_edited(world: World, ground: Atom, where: str = "") -> None:
    """The fact an evidence edit left, then the world's notes: the assert
    and retract-source verbs and the repl's assert print through here."""
    print(f"{ground} = {_interval_str(lookup(world, ground))}{where}")
    _print_notes(world.diagnostics)


def _cmd_retract_source(args: argparse.Namespace) -> int:
    world = load_world(args.world, _policy(args))
    atom, negated = parse_goal(args.atom)
    if negated:
        raise PossumError("retract the positive atom, not its negation")
    ground = substitute(atom, world.roles)
    edits = world.edits  # retract_evidence answers whether the interval moved
    retract_evidence(world, ground, args.source, _policy(args))
    if world.edits == edits:
        print(f"no evidence from {args.source} for {ground}; nothing to do")
        return 0
    return _write_back(args, world, ground)


def _cmd_cases(args: argparse.Namespace) -> int:
    kb = load_kb(args.kb)
    path = parse_path(args.path)
    notes: list[str] = []
    if args.world:
        world = load_world(args.world, _policy(args))
        notes = world.diagnostics  # a fresh list
        templates = retrieve(kb.case_library, path, world, _config(args), diagnostics=notes)
    else:
        if not kb.case_library.has_path(path):
            raise UnknownPathError(f"taxonomy path {format_path(path)} is not declared")
        templates = kb.case_library.templates_at(path)
    _print_cases(templates, notes)
    return 0


def _print_cases(templates, notes: list[str]) -> None:
    for template in templates:
        print(f"{template.identifier}  {format_path(template.path)}")
    _print_notes(notes)


def _cmd_saturate(args: argparse.Namespace) -> int:
    kb = load_kb(args.kb)
    world = load_world(args.world, _policy(args))
    session = QuerySession(kb, world, _config(args))
    derived = session.saturate()
    if args.format == "json":
        import json
        payload = {
            str(atom): [iv.lower, iv.upper] for atom, iv in derived.items()
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    _print_saturation(derived, session.diagnostics)
    return 0


def _print_saturation(derived: dict[Atom, CertaintyInterval], notes: list[str]) -> None:
    for atom in sorted(derived, key=str):
        print(f"{atom} = {_interval_str(derived[atom])}")
    _print_notes(notes)


_REPL_HELP = """\
commands:
  query (atom)            prove a goal ((not (atom)) for the complement)
  why                     show the proof tree of the last query
  what-if (atom) [l, u] [@source]
                          re-run the last query with extra evidence, then discard it
  assert (atom) [l, u] [@source]
                          add evidence to this session's world
  cases some/path         list case templates under a taxonomy node
  saturate                derive everything derivable
  help                    this text
  quit                    leave\
"""


def _cmd_repl(args: argparse.Namespace) -> int:
    kb = load_kb(args.kb)
    world = load_world(args.world, _policy(args))
    config = _config(args)
    asker = _StdinAsker()
    last: QueryResult | None = None
    last_goal_text: str | None = None
    print(f"possum {__version__}; world {world.identifier}; 'help' lists commands")
    while True:
        if asker.pending is not None:
            line, asker.pending = asker.pending, None
        else:
            try:
                line = input("possum> ").strip()
            except EOFError:
                print()
                return 0
        if not line:
            continue
        verb, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if verb in ("quit", "exit"):
                return 0
            elif verb == "help":
                print(_REPL_HELP)
            elif verb == "query":
                last = _answer(kb, world, rest, config, asker)
                last_goal_text = rest
            elif verb == "why":
                if last is None:
                    print("nothing queried yet")
                else:
                    print(explain(last))
            elif verb == "assert":
                atom, interval, source = parse_evidence_text(rest)
                ground = substitute(atom, world.roles)
                assert_evidence(world, ground, interval, source or "user", config.conflict_policy)
                _print_edited(world, ground)
            elif verb == "what-if":
                if last_goal_text is None:
                    print("nothing queried yet; query first, then explore")
                    continue
                atom, interval, source = parse_evidence_text(rest)
                twin = world.copy()
                ground = substitute(atom, twin.roles)
                assert_evidence(twin, ground, interval, source or "what-if", config.conflict_policy)
                print(f"with {ground} = {interval}:")
                _answer(kb, twin, last_goal_text, config, asker)
            elif verb == "cases":
                notes = world.diagnostics
                found = retrieve(
                    kb.case_library, parse_path(rest), world, config, diagnostics=notes
                )
                _print_cases(found, notes)
            elif verb == "saturate":
                session = QuerySession(kb, world, config)
                _print_saturation(session.saturate(), session.diagnostics)
            else:
                print(f"unknown command {verb!r}; 'help' lists commands")
        except ConflictError as err:
            print(_paint(f"conflict: {err}", "31"))
        except PossumError as err:
            print(_paint(str(err), "31"))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "load": _cmd_load,
        "query": lambda a: _run_query(a, want_trace=a.trace),
        "explain": lambda a: _run_query(a, want_trace=True),
        "assert": _cmd_assert,
        "retract-source": _cmd_retract_source,
        "cases": _cmd_cases,
        "saturate": _cmd_saturate,
        "repl": _cmd_repl,
    }
    try:
        return handlers[args.verb](args)
    except ConflictError as err:
        print(f"possum: conflict: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"possum: {err.filename}: no such file", file=sys.stderr)
        return 1
    except PossumError as err:
        print(f"possum: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
