"""Command-line behaviour: verbs, exit codes, file rewriting, the repl."""

import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import possum.cli as cli
from possum.cli import main
from possum.dsl import load_world
from possum.knowledge import Atom, lookup

DEMO_KB = str(resources.files("possum").joinpath("data", "demo.kb"))
DEMO_WORLD = str(resources.files("possum").joinpath("data", "m1.world"))
GOAL = "(anti-trust-success ?raider ?target)"


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("POSSUM_COLOR", "never")


def _possum(*args, stdin=None, env=()):
    """Run ``python -m possum.cli`` in a fresh process, stdin piped,
    with the extra environment variables ``env``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "possum.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, **dict(env)},
    )


@pytest.fixture()
def world_copy(tmp_path):
    target = tmp_path / "m1.world"
    shutil.copyfile(DEMO_WORLD, target)
    return str(target)


class TestParsing:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("possum ")

    def test_unknown_verb_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["conjure"])
        assert exc.value.code == 1

    def test_missing_file_exits_one(self, capsys):
        rc = main(["load", "no-such.kb"])
        assert rc == 1
        assert "no such file" in capsys.readouterr().err


def _modules_after(statement):
    """The names in ``sys.modules`` once a fresh interpreter runs ``statement``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", f"{statement}\nimport sys\nprint(*sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    return set(done.stdout.split())


class TestStartup:
    def test_import_generates_no_code_and_loads_no_json(self):
        # Compared with a bare interpreter's modules, since site hooks
        # may already have loaded some of the standard library.
        added = _modules_after("import possum.cli") - _modules_after("pass")
        assert "possum.cli" in added
        assert sorted({"dataclasses", "graphlib", "inspect", "json"} & added) == []


class TestLoad:
    def test_demo_summary(self, capsys):
        rc = main(["load", DEMO_KB, DEMO_WORLD])
        out = capsys.readouterr().out
        assert rc == 0
        assert "7 rules" in out
        assert "3 cases" in out
        assert "1 precedent link," not in out  # no stray plural comma
        assert "1 precedent link" in out
        assert "validation: ok" in out
        assert "world M1" in out

    def test_invalid_kb_fails_validation(self, tmp_path, capsys):
        bad = tmp_path / "cycle.kb"
        bad.write_text(
            "rule up tnorm T2 suff 0.9 nec 0 { if (a) then (b) }\n"
            "rule down tnorm T2 suff 0.9 nec 0 { if (b) then (a) }\n"
        )
        rc = main(["load", str(bad)])
        captured = capsys.readouterr()
        assert rc == 1
        # The cycle ``saturate`` raises for this KB, below.
        assert captured.err == "validation: derivation cycle: b -> a -> b\n"

    def test_cycle_text_does_not_depend_on_the_hash_seed(self, tmp_path, capsys):
        bad = tmp_path / "cycle.kb"
        bad.write_text(
            "".join(
                f"rule {ident} tnorm T2 suff 0.9 nec 0 {{ if {body} then {head} }}\n"
                for ident, body, head in [
                    ("r0", "(p1)", "(p0)"),
                    ("r1", "(p5)", "(p3)"),
                    ("r2", "(p1) (p2) (p8) (p5)", "(p4)"),
                    ("r3", "(p8) (p6) (p5) (p7)", "(p1)"),
                    ("r4", "(p6) (p2) (p7)", "(p1)"),
                    ("r5", "(p7) (p2)", "(p8)"),
                    ("r6", "(p8) (p1) (p2) (p5)", "(p0)"),
                    ("r7", "(p6) (p1)", "(p2)"),
                    ("r8", "(p3) (p6)", "(p2)"),
                ]
            )
        )
        for seed in ("0", "7"):
            done = _possum("load", str(bad), env={"PYTHONHASHSEED": seed})
            assert done.returncode == 1
            assert done.stderr == "validation: derivation cycle: p1 -> p8 -> p2 -> p1\n"
        assert main(["saturate", str(bad), DEMO_WORLD]) == 1
        assert capsys.readouterr().err == (
            "possum: derivation cycle: (p1) -> (p8) -> (p2) -> (p1)\n"
        )

    def test_load_checks_predicates_so_rejects_a_kb_query_answers(self, tmp_path, capsys):
        # ``up`` makes ``p`` read ``p``, a cycle between predicates; in a
        # world that binds ?lo and ?hi to different constants it reads
        # (p b) from (p a), and no ground atom reads itself.
        kb = tmp_path / "roles.kb"
        kb.write_text(
            "rule up tnorm T2 suff 0.8 nec 0 { if (p ?lo) then (p ?hi) }\n"
            "rule base tnorm T2 suff 0.9 nec 0 { if (q ?lo) then (p ?lo) }\n"
        )
        world = tmp_path / "w.world"
        world.write_text("world w {\n  roles ?lo = a ?hi = b;\n  fact (q a) [0.7, 1] @s;\n}\n")
        assert main(["load", str(kb), str(world)]) == 1
        assert capsys.readouterr().err == "validation: derivation cycle: p -> p\n"
        assert main(["query", str(kb), str(world), "(p b)"]) == 0
        assert "[0.5040, 1.0000]" in capsys.readouterr().out
        assert main(["saturate", str(kb), str(world)]) == 0
        out = capsys.readouterr().out
        assert "(p a) = [0.6300, 1.0000]" in out
        assert "(p b) = [0.5040, 1.0000]" in out

    def test_saturate_reports_a_cycle_without_a_traceback(self, tmp_path):
        bad = tmp_path / "cycle.kb"
        bad.write_text(
            "rule up tnorm T2 suff 0.9 nec 0 { if (a) then (b) }\n"
            "rule down tnorm T2 suff 0.9 nec 0 { if (b) then (a) }\n"
        )
        done = _possum("saturate", str(bad), DEMO_WORLD)
        assert done.returncode == 1
        assert done.stderr == "possum: derivation cycle: (b) -> (a) -> (b)\n"
        assert "Traceback" not in done.stdout + done.stderr

    def test_parse_error_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "broken.kb"
        bad.write_text("rule r tnorm T9 suff 0.5 nec 0 { if (a) then (b) }\n")
        rc = main(["load", str(bad)])
        captured = capsys.readouterr()
        assert rc == 1
        assert f"{bad}:1:14" in captured.err


class TestQuery:
    def test_headline_answer(self, capsys):
        rc = main(["query", DEMO_KB, DEMO_WORLD, GOAL])
        out = capsys.readouterr().out
        assert rc == 0
        assert "(anti-trust-success Mobil Marathon) = [0.9382, 0.9800]" in out

    def test_negated_goal(self, capsys):
        rc = main(["query", DEMO_KB, DEMO_WORLD, f"(not {GOAL})"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "(not (anti-trust-success Mobil Marathon)) = [0.0200, 0.0618]" in out
        assert "complement" in out

    def test_source_named_unknown_is_not_missing_support(self, tmp_path, capsys):
        kb = tmp_path / "k.kb"
        kb.write_text("")
        world = tmp_path / "w.world"
        world.write_text("world w {\n  fact (a) [0.9, 1] @unknown;\n}\n")
        rc = main(["query", str(kb), str(world), "(a)"])
        assert rc == 0
        assert capsys.readouterr().out == "(a) = [0.9000, 1.0000]\n"

    def test_json_format(self, capsys):
        rc = main(["query", DEMO_KB, DEMO_WORLD, GOAL, "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["goal"] == "(anti-trust-success Mobil Marathon)"
        assert payload["interval"][0] == pytest.approx(0.93818516, abs=1e-6)
        assert payload["interval"][1] == pytest.approx(0.98, abs=1e-12)
        proof = payload["proof"]
        assert proof[0]["kind"] == "aggregation"
        assert proof[proof[0]["children"][0]]["kind"] == "rule-instance"

    def test_json_answers_a_deep_chain(self, tmp_path):
        # a0 is a fact and each ai derives from a(i-1): a proof 601 nodes deep.
        kb = tmp_path / "chain.kb"
        kb.write_text("".join(
            f"rule r{i} tnorm T2 suff 0.999 nec 0 {{ if (a{i - 1}) then (a{i}) }}\n"
            for i in range(1, 301)
        ))
        world = tmp_path / "w.world"
        world.write_text("world w {\n  fact (a0) [0.9, 1] @s;\n}\n")
        done = _possum("query", str(kb), str(world), "(a300)", "--format", "json")
        assert done.returncode == 0, done.stderr
        payload = json.loads(done.stdout)
        assert payload["goal"] == "(a300)"
        assert len(payload["proof"]) == 2 * 300 + 1
        assert payload["proof"][-1]["goal"] == "(a0)"

    def test_trace_appends_proof(self, capsys):
        rc = main(["query", DEMO_KB, DEMO_WORLD, GOAL, "--trace"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "precedent defense/anti-trust" in out
        assert "case-instance brown-shoe" in out

    def test_explain_verb_always_traces(self, capsys):
        rc = main(["explain", DEMO_KB, DEMO_WORLD, GOAL])
        out = capsys.readouterr().out
        assert rc == 0
        assert "aggregation (anti-trust-success Mobil Marathon)" in out

    def test_bad_goal_text(self, capsys):
        rc = main(["query", DEMO_KB, DEMO_WORLD, "not-an-atom"])
        assert rc == 1
        assert "possum:" in capsys.readouterr().err


class TestAlpha:
    @pytest.mark.parametrize("alpha", ["2", "-1", "nan", "inf", "1.0000001", "half"])
    @pytest.mark.parametrize(
        "verb",
        [
            ["query", DEMO_KB, DEMO_WORLD, GOAL],
            ["explain", DEMO_KB, DEMO_WORLD, GOAL],
            ["saturate", DEMO_KB, DEMO_WORLD],
            ["cases", DEMO_KB, "defense", DEMO_WORLD],
            ["repl", DEMO_KB, DEMO_WORLD],
        ],
        ids=["query", "explain", "saturate", "cases", "repl"],
    )
    def test_threshold_outside_the_unit_interval_is_a_usage_error(self, verb, alpha, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*verb, "--alpha", alpha])
        assert exc.value.code == 1
        assert "--alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["0", "1", "0.95"])
    def test_threshold_bounds_are_accepted(self, alpha, capsys):
        assert main(["query", DEMO_KB, DEMO_WORLD, GOAL, "--alpha", alpha]) == 0


class TestAssertRetract:
    def test_assert_rewrites_world_file(self, world_copy, capsys):
        rc = main(
            ["assert", world_copy, "(fresh-rumor)", "[0.4, 1]", "--source", "press"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "(fresh-rumor) = [0.4000, 1.0000]" in out
        world = load_world(world_copy)
        assert lookup(world, Atom("fresh-rumor")).lower == 0.4
        assert world.facts[Atom("fresh-rumor")].sources() == ["press"]

    def test_assert_substitutes_roles(self, world_copy):
        main(["assert", world_copy, "(watched ?target)", "[0.9, 1]"])
        world = load_world(world_copy)
        assert Atom("watched", ("Marathon",)) in world.facts

    def test_out_flag_leaves_original_alone(self, world_copy, tmp_path):
        before = Path(world_copy).read_text()
        out_file = tmp_path / "next.world"
        main(["assert", world_copy, "(fresh-rumor)", "[0.4, 1]", "--out", str(out_file)])
        assert Path(world_copy).read_text() == before
        assert "fresh-rumor" in out_file.read_text()

    def test_conflicting_assert_exits_two_and_keeps_file(self, world_copy, capsys):
        before = Path(world_copy).read_text()
        rc = main(
            ["assert", world_copy, "(hostile-takeover ?raider ?target)", "[0, 0]"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "conflict" in captured.err
        assert Path(world_copy).read_text() == before

    def test_lenient_assert_goes_through(self, world_copy):
        rc = main(
            [
                "assert", world_copy, "(hostile-takeover ?raider ?target)", "[0, 0]",
                "--tnorm-policy", "lenient",
            ]
        )
        assert rc == 0
        world = load_world(world_copy, cli.ConflictPolicy.LENIENT)
        atom = Atom("hostile-takeover", ("Mobil", "Marathon"))
        assert len(world.facts[atom].evidence) == 2

    @pytest.mark.parametrize("source", ["two words", "9lives", "", "?x", "a;b", " press"])
    def test_source_that_would_not_parse_back_is_rejected(self, world_copy, source, capsys):
        before = Path(world_copy).read_text()
        rc = main(["assert", world_copy, "(fresh-rumor)", "[0.4, 1]", "--source", source])
        assert rc == 1
        assert repr(source) in capsys.readouterr().err
        assert Path(world_copy).read_text() == before

    @pytest.mark.parametrize("source", ["press", "T1.5", "wire-feed_2", "fact"])
    def test_written_source_parses_back(self, world_copy, tmp_path, source):
        out_file = tmp_path / "next.world"
        rc = main(
            ["assert", world_copy, "(fresh-rumor)", "[0.4, 1]", "--source", source,
             "--out", str(out_file)]
        )
        assert rc == 0
        assert main(["load", DEMO_KB, str(out_file)]) == 0
        assert load_world(str(out_file)).facts[Atom("fresh-rumor")].sources() == [source]

    def test_retract_source_round_trip(self, world_copy, capsys):
        main(["assert", world_copy, "(fresh-rumor)", "[0.4, 1]", "--source", "press"])
        rc = main(["retract-source", world_copy, "(fresh-rumor)", "press"])
        assert rc == 0
        assert Atom("fresh-rumor") not in load_world(world_copy).facts

    def test_retract_missing_source_is_noop(self, world_copy, capsys):
        rc = main(["retract-source", world_copy, "(fresh-rumor)", "nobody"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "nothing to do" in out


class TestCasesAndSaturate:
    def test_cases_without_world_lists_by_node(self, capsys):
        rc = main(["cases", DEMO_KB, "defense"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert len(out) == 3
        assert all("defense/" in line for line in out)

    def test_cases_with_world_screen(self, capsys):
        rc = main(["cases", DEMO_KB, "defense/anti-trust", DEMO_WORLD])
        out = capsys.readouterr().out
        assert rc == 0
        assert "brown-shoe" in out

    def test_cases_unknown_path(self, capsys):
        rc = main(["cases", DEMO_KB, "no/where"])
        assert rc == 1
        assert "not declared" in capsys.readouterr().err

    def test_saturate_text(self, capsys):
        rc = main(["saturate", DEMO_KB, DEMO_WORLD])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert len(lines) >= 4
        assert all(" = [" in line for line in lines)

    def test_saturate_json_matches_query(self, capsys):
        main(["saturate", DEMO_KB, DEMO_WORLD, "--format", "json"])
        table = json.loads(capsys.readouterr().out)
        main(["query", DEMO_KB, DEMO_WORLD, GOAL, "--format", "json"])
        single = json.loads(capsys.readouterr().out)
        goal = "(anti-trust-success Mobil Marathon)"
        assert table[goal] == single["interval"]


UNBOUND_KB = """\
taxonomy p;

rule r tnorm T2 suff 0.9 nec 0 {
  if (a)
  then (q ?who)
}

case c path p tnorm T2 suff 0.9 nec 0 {
  roles ?who
  if (a)
  then (q2 ?who)
}

case d path p tnorm T2 suff 0.9 nec 0 {
  roles ?who
  context (g ?who)
  if (a)
  then (q2 x)
}

precedent (q2 x) from p tnorm T2;
"""

UNBOUND_NOTES = [
    "note: rule r inactive: role ?who is unbound in (q ?who)",
    "note: case c inactive: role ?who is unbound in (q2 ?who)",
    "note: case d inactive: role ?who is unbound in (g ?who)",
]


@pytest.fixture()
def unbound_kb(tmp_path):
    """A KB whose rule and cases need a role ?who that the world leaves unbound."""
    kb = tmp_path / "k.kb"
    kb.write_text(UNBOUND_KB)
    world = tmp_path / "w.world"
    world.write_text("world w {\n  fact (a) [0.8, 1] @s;\n}\n")
    return str(kb), str(world)


class TestUnboundRoleNotes:
    def test_saturate_notes_inactive_rules_and_cases(self, unbound_kb, capsys):
        rc = main(["saturate", *unbound_kb])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[0] == "(q2 x) = [0.0000, 1.0000]"
        assert sorted(out[1:]) == sorted(UNBOUND_NOTES + ["note: no precedent support for (q2 x) under p"])

    def test_saturate_json_has_no_notes(self, unbound_kb, capsys):
        main(["saturate", *unbound_kb, "--format", "json"])
        assert json.loads(capsys.readouterr().out) == {"(q2 x)": [0.0, 1.0]}

    def test_cases_notes_inactive_case(self, unbound_kb, capsys):
        kb, world = unbound_kb
        rc = main(["cases", kb, "p", world])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out == ["c  p", UNBOUND_NOTES[2]]

    def test_repl_saturate_and_cases_print_notes(self, unbound_kb, monkeypatch, capsys):
        _feed(monkeypatch, ["saturate", "cases p", "quit"])
        rc = main(["repl", *unbound_kb])
        out = capsys.readouterr().out
        assert rc == 0
        for note in UNBOUND_NOTES:
            assert note in out
        assert out.count(UNBOUND_NOTES[2]) == 2


class TestColor:
    def test_never_strips_codes(self, monkeypatch):
        monkeypatch.setenv("POSSUM_COLOR", "never")
        assert cli._paint("x", "36") == "x"

    def test_tty_gets_codes_under_auto(self, monkeypatch):
        monkeypatch.setenv("POSSUM_COLOR", "auto")

        class _Tty:
            def isatty(self):
                return True

        monkeypatch.setattr(cli.sys, "stdout", _Tty())
        assert cli._paint("x", "36") == "\x1b[36mx\x1b[0m"

    def test_non_tty_plain_under_auto(self, monkeypatch, capsys):
        monkeypatch.setenv("POSSUM_COLOR", "auto")
        main(["query", DEMO_KB, DEMO_WORLD, GOAL])
        assert "\x1b[" not in capsys.readouterr().out


def _feed(monkeypatch, lines):
    feed = iter(lines)

    def fake_input(prompt=""):
        try:
            return next(feed)
        except StopIteration:
            raise EOFError from None

    monkeypatch.setattr("builtins.input", fake_input)


class TestRepl:
    def test_session_flow(self, monkeypatch, capsys):
        _feed(
            monkeypatch,
            [
                f"query {GOAL}",
                "",  # decline the askable prompt
                "why",
                "assert (extra) [0.5, 1] @me",
                "what-if (extra) [0.9, 1]",
                "",  # decline the askable prompt inside the what-if run
                "cases defense",
                "mystery-verb",
                "quit",
            ],
        )
        rc = main(["repl", DEMO_KB, DEMO_WORLD])
        out = capsys.readouterr().out
        assert rc == 0
        assert "(anti-trust-success Mobil Marathon) = [0.9382, 0.9800]" in out
        assert "precedent defense/anti-trust" in out
        assert "(extra) = [0.5000, 1.0000]" in out
        assert "with (extra) = [0.9000, 1.0000]:" in out
        assert "brown-shoe" in out
        assert "unknown command 'mystery-verb'" in out

    def test_what_if_does_not_stick(self, monkeypatch, capsys):
        _feed(
            monkeypatch,
            [
                f"query {GOAL}",
                "",
                f"what-if {GOAL} [0.5, 0.95] @probe",
                "",
                f"query {GOAL}",
                "",
                "quit",
            ],
        )
        rc = main(["repl", DEMO_KB, DEMO_WORLD])
        out = capsys.readouterr().out
        assert rc == 0
        # The probe tightens the stored prior, capping the upper bound.
        assert "(anti-trust-success Mobil Marathon) = [0.9382, 0.9500]" in out
        # First and third answers identical: the what-if world was a copy.
        assert out.count("(anti-trust-success Mobil Marathon) = [0.9382, 0.9800]") == 2

    def test_conflicting_assert_reported_not_fatal(self, monkeypatch, capsys):
        _feed(
            monkeypatch,
            [
                "assert (hostile-takeover ?raider ?target) [0, 0]",
                "quit",
            ],
        )
        rc = main(["repl", DEMO_KB, DEMO_WORLD])
        out = capsys.readouterr().out
        assert rc == 0
        assert "conflict:" in out

    def test_piped_commands_after_an_askable_prompt_run(self):
        # The query asks about one askable fact; from a pipe, the next
        # line is a command, so it declines the prompt and runs.
        commands = [f"query {GOAL}", "why", "cases defense", "saturate", "quit"]
        done = _possum("repl", DEMO_KB, DEMO_WORLD, stdin="\n".join(commands) + "\n")
        assert done.returncode == 0
        assert "could not read that interval" not in done.stdout
        assert done.stdout.count("belief in (weak-foreign-competition Mobil Marathon)?") == 1
        assert "precedent defense/anti-trust" in done.stdout
        assert "brown-shoe  defense/anti-trust/market-dominance" in done.stdout
        saturated = (
            "possum> (anti-trust-success Mobil Marathon) = [0.9382, 0.9800]\n"
            "(highly-concentrated-market Mobil Marathon) = [0.7200, 1.0000]\n"
        )
        assert saturated in done.stdout
        assert done.stdout.endswith("possum> ")

    def test_eof_ends_cleanly(self, monkeypatch, capsys):
        _feed(monkeypatch, [])
        assert main(["repl", DEMO_KB, DEMO_WORLD]) == 0
