"""Command-line behaviour: exit codes, reports, determinism."""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from tests.conftest import LIFT_DIR, VM_DIR

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "docs" / "report.schema.json").read_text())


def run_cli(*argv: str):
    proc = subprocess.run(
        [sys.executable, "-m", "ebltl.cli", *argv],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def run_json(*argv: str):
    code, out, err = run_cli(*argv, "--json")
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert report["exit"] == code
    return code, report


def test_parse_ok():
    code, report = run_json("parse", str(VM_DIR / "vm1.eb"))
    assert code == 0
    assert report["result"]["machine"] == "VM1"
    assert len(report["result"]["events"]) == 4


def test_parse_error_is_usage():
    code, out, _ = run_cli("parse", str(VM_DIR / "chain.json"))
    assert code == 3
    assert "error" in out


def test_missing_file_is_usage():
    code, _, _ = run_cli("parse", "no-such-file.eb")
    assert code == 3


def test_explore_summary_and_edgelist():
    code, report = run_json("explore", str(VM_DIR / "vm0.eb"))
    assert code == 0
    graph = report["result"]["graph"]
    assert len(graph["states"]) == 4 and len(graph["edges"]) == 6
    code, out, _ = run_cli("explore", str(VM_DIR / "vm0.eb"), "--format", "edgelist")
    assert code == 0 and len(out.strip().split("\n")) == 6


def test_closed_pipe_ends_quietly():
    """A reader that stops after one line (`| head -1`) gets that line; the
    rest of the report, far more than a pipe buffers, is dropped with
    nothing on stderr, and the command keeps its exit code."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "ebltl.cli", "explore", str(VM_DIR / "vm4.eb"),
         "--set", "capacity=12", "--verbose"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")
    assert first == b"VM4: 3172 state(s), 9638 edge(s), 0 deadlock(s)\n"


@pytest.mark.parametrize("argv, first_line", [
    (["--json"], b"{\n"), (["--format", "edgelist"], b"0 pay 1\n"),
], ids=["json", "edgelist"])
def test_closed_pipe_ends_quietly_on_streamed_reports(argv, first_line):
    """The graph reports written piece by piece from the record end as the
    text report does when the reader stops after one line."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "ebltl.cli", "explore", str(VM_DIR / "vm4.eb"),
         "--set", "capacity=12", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")
    assert first == first_line


def test_explore_invariant_violation_exit_1(tmp_path):
    bad = tmp_path / "bad.eb"
    bad.write_text(
        "machine Bad\nvariables\n  n : 0..3\ninvariant\n  n < 2\n"
        "events\n  event init then n := 3 end\nend")
    code, out, _ = run_cli("explore", str(bad))
    assert code == 1 and "invariant violation" in out


def test_explore_bound_exhausted_exit_4():
    code, out, _ = run_cli("explore", str(VM_DIR / "vm4.eb"),
                           "--bound-states", "5")
    assert code == 4 and "bound exhausted" in out


def test_po_pass_and_step():
    code, report = run_json("po", "--chain", str(VM_DIR / "chain.json"))
    assert code == 0 and report["result"]["ok"]
    code, report = run_json("po", "--chain", str(VM_DIR / "chain.json"),
                            "--step", "0")
    assert code == 0
    assert [p["abstract"] for p in report["result"]["pairs"]] == ["VM0"]


def test_po_on_one_machine_says_no_obligation_was_checked(tmp_path, capsys):
    """A chain of one machine has no refinement step: `po` says so in one
    line and passes, and its `--json` report is an empty pass."""
    from ebltl.cli import main
    chain = tmp_path / "one.json"
    chain.write_text(json.dumps(
        {"name": "vm-one", "machines": [str((VM_DIR / "vm1.eb").resolve())]}))
    assert main(["po", "--chain", str(chain)]) == 0
    assert capsys.readouterr().out == (
        "chain vm-one has no refinement step: no obligation checked\n")
    assert main(["po", "--chain", str(chain), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == {"ok": True, "pairs": []}


def test_strategy_exit_codes():
    code, _ = run_json("strategy", "--chain", str(VM_DIR / "chain-vm1.json"))
    assert code == 0
    code, report = run_json("strategy", "--chain", str(VM_DIR / "chain-to-vm3.json"))
    assert code == 1
    assert [v["rule"] for v in report["result"]["violations"]] == [6]
    assert report["result"]["violations"][0]["event"] == "pay"


def test_mc_holding_and_failing():
    code, report = run_json("mc", str(VM_DIR / "vm1.eb"), "--prop", "phi1")
    assert code == 0
    code, report = run_json("mc", str(VM_DIR / "vm1.eb"),
                            "--prop", "G([selectChoc] => F [dispenseChoc])")
    assert code == 1
    (result,) = report["result"]["properties"].values()
    assert result["holds"] is False
    assert result["counterexample"]["kind"] == "lasso"


@pytest.mark.parametrize("as_json", [False, True])
def test_foreign_atoms_warn_in_one_plain_line(as_json):
    argv = ["mc", str(VM_DIR / "vm4.eb"), "--prop", "select_leads_to_dispense"]
    code, out, err = run_cli(*argv, *(["--json"] if as_json else []))
    assert code == 0
    assert err == ("warning: formula mentions events outside the machine "
                   "alphabet: dispenseItem, selectItem\n")
    if as_json:
        assert json.loads(out)["result"]["properties"]["select_leads_to_dispense"]["holds"]


def test_mc_prop_file(tmp_path):
    props = tmp_path / "some.ltl"
    props.write_text("a = G F [pay]\nb = true\n")
    code, report = run_json("mc", str(VM_DIR / "vm2.eb"),
                            "--prop", f"@{props}")
    assert code == 0
    assert set(report["result"]["properties"]) == {"a", "b"}


def test_beta_exit_codes():
    from ebltl.formulas import parse_formula
    from ebltl.ltl import holds_on_trace
    from ebltl.oracle import _bounded_traces
    from ebltl.traces import project_trace
    code, _ = run_json("beta", "--prop", "G F [pay]", "--beta", "pay",
                       "--sigma", "pay,refill")
    assert code == 0
    code, report = run_json("beta", "--prop", "!G [pay]", "--beta", "pay",
                            "--sigma", "pay,refill")
    assert code == 1
    assert report["result"]["status"] == "refuted"
    # with sigma = beta projection changes no trace: decided, not bounded
    code, report = run_json("beta", "--prop", "[pay]", "--beta", "pay",
                            "--sigma", "pay")
    assert code == 0
    assert report["result"]["status"] == "certified"
    assert report["result"]["method"] == "tableau-product"
    pay = parse_formula("[pay]")
    for u in _bounded_traces(("pay",), 2, 2):
        assert holds_on_trace(u, pay) == holds_on_trace(project_trace(u, {"pay"}), pay)


def test_translate():
    from ebltl.formulas import parse_formula
    code, report = run_json("translate", "--chain", str(VM_DIR / "chain.json"),
                            "--at", "0", "--prop", "select_leads_to_dispense")
    assert code == 0
    assert parse_formula(report["result"]["translated"]) == parse_formula(
        "G(([selectBiscuit] | [selectChoc]) => "
        "F([dispenseBiscuit] | [dispenseChoc]))")


def test_translate_warns_on_atoms_outside_the_level():
    """phi2 names VM1's events: translated at level 0, where VM0 has none
    of them, it warns once on stderr, as `mc vm0.eb --prop phi2` does, and
    keeps its output and exit code; at level 1 it does not warn."""
    chain = str(VM_DIR / "chain.json")
    code, out, err = run_cli("translate", "--chain", chain, "--at", "0", "--prop", "phi2")
    assert (code, out) == (0, "!G F !true => G (!true => F !true)\n")
    assert err == ("warning: formula mentions events outside the alphabet of VM0 (level 0): "
                   "dispenseChoc, selectBiscuit, selectChoc\n")
    code, out, err = run_cli("translate", "--chain", chain, "--at", "1", "--prop", "phi2")
    assert (code, err) == (0, "")


def test_gf_certifies():
    code, report = run_json("gf", "--chain", str(VM_DIR / "chain-vm1.json"))
    assert code == 0
    assert report["result"]["asserted"] is True
    assert report["result"]["lemma"] == 1
    code, report = run_json("gf", "--chain", str(VM_DIR / "chain.json"))
    assert code == 0 and report["result"]["lemma"] == 3


def test_gf_blocked_exit_2():
    code, report = run_json("gf", "--chain", str(VM_DIR / "chain-to-vm3.json"))
    assert code == 2
    assert report["result"]["asserted"] is False


def test_preserve_certifies_and_blocks():
    code, report = run_json("preserve", "--chain", str(VM_DIR / "chain.json"),
                            "--at", "1", "--prop", "phi2")
    assert code == 0
    assert report["result"]["conclusion"].endswith("F [dispenseChoc])")
    code, report = run_json("preserve", "--chain", str(VM_DIR / "chain.json"),
                            "--at", "1", "--prop", "phi4")
    assert code == 2
    failed = [h for h in report["result"]["hypotheses"] if not h["passed"]]
    assert len(failed) == 1 and failed[0]["name"].startswith("VM1 satisfies")


def test_theorem1_and_oracle():
    code, report = run_json("theorem1", "--chain", str(VM_DIR / "chain-vm1.json"))
    assert code == 0
    assert report["result"]["C_star"] == ["pay", "refill", "refund"]
    code, report = run_json("oracle", "--random", "25", "--seed", "3")
    assert code == 0
    assert report["result"]["ok"] is True


def test_constant_override_and_verbose():
    code, report = run_json("explore", str(VM_DIR / "vm4.eb"),
                            "--set", "capacity=1")
    assert code == 0
    states = report["result"]["graph"]["states"]
    assert max(s["chocStock"] for s in states) == 1
    code, out, _ = run_cli("explore", str(VM_DIR / "vm0.eb"), "--verbose")
    assert code == 0 and "state 0:" in out
    code, out, _ = run_cli("explore", str(VM_DIR / "vm0.eb"), "--set", "junk")
    assert code == 3


@pytest.mark.parametrize("item", ["=3", "3x=1", " capacity=3", "capacity =3", "cap-acity=3"])
def test_set_name_must_be_an_identifier(item, capsys):
    """`--set` rejects a NAME that is not an identifier, where it would
    otherwise be an override no machine can declare, silently ignored."""
    from ebltl import cli
    assert cli.main(["explore", str(VM_DIR / "vm4.eb"), "--set", item]) == 3
    assert capsys.readouterr().out == f"error: bad --set argument {item!r}, expected NAME=INT\n"


def test_set_makes_a_range_bound_negative(tmp_path):
    """Source text cannot write a negative constant, but `--set` can; the
    domain check then honours the negative bound (docs/language.md)."""
    src = tmp_path / "down.eb"
    src.write_text("machine Down\nconstants\n  L = 2\nvariables\n  x : L..4\n"
                   "events\n  event init then x := 4 end\n"
                   "  event dec\n    status ordinary\n    then x := x - 1 end\nend\n")
    code, report = run_json("explore", str(src), "--set", "L=-2")
    assert code == 1
    assert report["result"]["error"] == (
        "state 7 of Down: x = -3 leaves its declared domain "
        "(reached by dec, dec, dec, dec, dec, dec, dec)")
    src.write_text(src.read_text().replace("L = 2", "L = -2"))
    code, report = run_json("parse", str(src))
    assert code == 3
    assert report["result"]["error"] == "unexpected '-', expected 'int' (line 3, column 7)"


def test_lift_corpus_runs():
    code, _ = run_json("mc", str(LIFT_DIR / "lift.eb"), "--prop",
                       "top_then_ground")
    assert code == 0
    code, report = run_json("mc", str(LIFT_DIR / "lift_prime.eb"), "--prop",
                            "top_then_ground")
    assert code == 1


def test_commands_read_the_record_not_the_edge_views(monkeypatch, capsys):
    """Every command reads a graph through its record of firings: no graph
    built by a run materialises the `edges` view, which is kept with
    `out_edges` for callers outside the package."""
    from ebltl.cli import main
    from ebltl.semantics import StateGraph

    graphs = []
    init = StateGraph.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        graphs.append(self)

    monkeypatch.setattr(StateGraph, "__init__", recording_init)
    vm3, vm4, chain = str(VM_DIR / "vm3.eb"), str(VM_DIR / "vm4.eb"), str(VM_DIR / "chain.json")
    for argv, code in [(["explore", vm3], 0), (["explore", vm3, "--json"], 0),
                       (["explore", vm3, "--format", "edgelist"], 0),
                       (["po", "--chain", chain], 0), (["gf", "--chain", chain], 0),
                       (["theorem1", "--chain", str(VM_DIR / "chain-vm1.json")], 0),
                       (["mc", vm4, "--prop", "phi2"], 0), (["mc", vm3, "--prop", "phi6"], 1),
                       (["preserve", "--chain", chain, "--at", "2", "--prop", "phi7"], 0),
                       (["oracle", "--random", "3"], 0)]:
        assert main(argv) == code, argv
    capsys.readouterr()
    assert len(graphs) > 20
    assert [g for g in graphs if "edges" in vars(g)] == []


@pytest.mark.parametrize("argv", [
    ("mc", str(VM_DIR / "vm4.eb"), "--prop", "phi2"),
    ("explore", str(VM_DIR / "vm3.eb")),
    ("preserve", "--chain", str(VM_DIR / "chain.json"), "--at", "2",
     "--prop", "phi7"),
    ("gf", "--chain", str(VM_DIR / "chain.json")),
    ("strategy", "--chain", str(VM_DIR / "chain-vm1.json")),
    ("oracle", "--random", "10", "--seed", "1"),
], ids=["mc", "explore", "preserve", "gf", "strategy", "oracle"])
def test_reports_byte_identical_across_runs(argv):
    first = run_cli(*argv, "--json")
    second = run_cli(*argv, "--json")
    assert first == second


BAD_FILES = {
    "latin1.eb": b"machine M\n# caf\xe9\n",
    "broken.json": b'{"machines": [',
    "no-machines.json": b'{"name": "x"}',
    "deep.eb": (b"machine Deep\nvariables\n  x : 0..2\ninvariant\n  " + b"(" * 120
                + b"x >= 0" + b")" * 120 + b"\nevents\n  event init then x := 0 end\nend\n"),
    # parses and typechecks, but nests past what Python compiles
    "implies.eb": (b"machine Implies\nvariables\n  f : bool\ninvariant\n  "
                   + b" => ".join([b"f"] * 200) + b"\nevents\n  event init then f := false end\nend\n"),
    "badtype.eb": b"machine Bad\nvariables\n  f : bool\nevents\n  event init then f := 3 end\nend\n",
    "empty.ltl": b"# no property\n",
}
# chain manifests over the lift pair, named by absolute path, whose one
# link holds a value of the wrong type
BAD_LINKS = {"linking-0": {"linking": 0}, "linking-false": {"linking": False},
             "linking-list": {"linking": []}, "linking-object": {"linking": {}},
             "renaming-0": {"renaming": 0}, "renaming-list": {"renaming": []}}
BAD_FILES.update({f"{name}.json": json.dumps({
    "machines": [str(LIFT_DIR / "lift.eb"), str(LIFT_DIR / "lift_prime.eb")],
    "links": [link]}).encode() for name, link in BAD_LINKS.items()})


@pytest.mark.parametrize("argv,code", [
    (("parse", "{tmp}"), 3),
    (("parse", "{tmp}/latin1.eb"), 3),
    (("po", "--chain", "{tmp}/broken.json"), 3),
    (("po", "--chain", "{tmp}/no-machines.json"), 3),
    (("mc", str(VM_DIR / "vm1.eb"), "--prop", "@{tmp}"), 3),
    (("po",), 3),
    (("strategy", "--chain", str(VM_DIR / "chain.json"), "--no-such-flag"), 3),
    (("explore", str(VM_DIR / "vm0.eb"), "--bound-states", "abc"), 3),
    (("parse", str(VM_DIR / "vm1.eb"), "--bound-states", "5"), 3),
    (("gf", "--chain", str(VM_DIR / "chain.json"), "--lasso-prefix", "2"), 3),
    (("oracle", "--set", "capacity=1"), 3),
    (("mc", str(VM_DIR / "vm1.eb"), "--prop", "phi1", "--verbose"), 3),
    (("explore", str(VM_DIR / "vm4.eb"), "--bound-states", "-1"), 3),
    (("po", "--chain", str(VM_DIR / "chain.json"), "--bound-states", "0"), 3),
    (("oracle", "--lasso-prefix", "-1"), 3),
    (("oracle", "--lasso-cycle", "0"), 3),
    (("oracle", "--random", "-3"), 3),
    (("parse", "{tmp}/deep.eb"), 3),
    (("mc", str(VM_DIR / "vm4.eb"), "--prop", "(" * 400 + "[pay]" + ")" * 400), 3),
    (("beta", "--prop", "F " * 2000 + "[a]"), 3),
    (("explore", "{tmp}/implies.eb"), 3),
    (("beta", "--prop", "[a]", "--sigma", ","), 3),
    (("beta", "--prop", "[a]", "--beta", "a,,b"), 3),
    (("beta", "--prop", "[a]", "--beta", "a,b-c"), 3),
    (("preserve", "--chain", str(VM_DIR / "chain.json"), "--at", "1",
      "--prop", "phi2", "--beta", "selectBiscuit,selectChoc,dispenseChoc,"), 3),
    (("parse", "{tmp}/badtype.eb"), 3),
    (("beta", "--prop", "[a] $"), 3),
    (("parse", str(VM_DIR / "vm1.eb"), "--set", "capacity=--5"), 3),
    (("parse", str(VM_DIR / "vm1.eb"), "--set", "capacity=\u00b2"), 3),
    (("po", "--chain", str(VM_DIR / "chain.json"), "--step", "\u0660"), 3),
    (("translate", "--chain", str(VM_DIR / "chain.json"), "--at", "\u0660",
      "--prop", "phi1"), 3),
    (("oracle", "--seed", "\u0663"), 3),
    (("beta", "--prop", f"@{VM_DIR / 'props.ltl'}"), 3),
    (("beta", "--prop", "@{tmp}/empty.ltl"), 3),
    (("translate", "--chain", str(VM_DIR / "chain.json"), "--at", "0",
      "--prop", f"@{VM_DIR / 'props.ltl'}"), 3),
    (("preserve", "--chain", str(VM_DIR / "chain.json"), "--at", "1",
      "--prop", f"@{VM_DIR / 'props.ltl'}"), 3),
    (("mc", str(VM_DIR / "vm4.eb"), "--prop", "@{tmp}/empty.ltl"), 3),
    (("--help",), 0),
    (("explore", "--help"), 0),
    (("--version",), 0),
] + [(("po", "--chain", f"{{tmp}}/{name}.json"), 3) for name in BAD_LINKS],
   ids=["parse-directory", "parse-not-utf8", "chain-bad-json",
        "chain-no-machines", "prop-file-directory", "missing-chain",
        "unknown-flag", "bound-not-int", "parse-bound-states",
        "gf-lasso-prefix", "oracle-set", "mc-verbose", "bound-states-negative",
        "bound-states-zero", "lasso-prefix-negative", "lasso-cycle-zero",
        "random-negative", "deep-invariant", "deep-prop", "deep-beta",
        "deep-compile", "beta-sigma-empty-names", "beta-empty-name",
        "beta-malformed-name", "preserve-beta-empty-name", "typecheck-error",
        "formula-bad-character", "set-double-minus", "set-superscript", "step-not-ascii",
        "at-not-ascii", "seed-not-ascii", "beta-prop-file-of-many",
        "beta-prop-file-of-none", "translate-prop-file-of-many",
        "preserve-prop-file-of-many", "mc-prop-file-of-none", "help",
        "subcommand-help", "version", *(f"link-{name}" for name in BAD_LINKS)])
def test_bad_input_is_a_usage_error(tmp_path, argv, code):
    """Bad command lines and unreadable or malformed inputs exit 3, never
    with a traceback; so do a flag the subcommand does not read, a
    numeric flag below its range, input that nests too deeply and a
    property file with no property, or with more than one where a command
    takes one."""
    for name, data in BAD_FILES.items():
        (tmp_path / name).write_bytes(data)
    got, out, err = run_cli(*(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert got == code
    assert "Traceback" not in out + err


@pytest.mark.parametrize("argv", [
    ("parse", "{tmp}/iff.eb"),
    ("mc", str(VM_DIR / "vm4.eb"), "--prop", "@{tmp}/props.ltl"),
], ids=["parse-deep-invariant", "mc-deep-second-property"])
def test_a_failed_command_prints_its_error_line_alone(tmp_path, argv):
    """A command that fails after its text report has begun prints the
    error line alone, as its --json report holds the error alone: `parse`
    fails printing a 1000-operand invariant after its summary lines, and
    `mc` on a 3000-conjunct property after reporting the one before it."""
    (tmp_path / "iff.eb").write_text(
        "machine Iff\nvariables\n  b : bool\ninvariant\n  " + " & ".join(["b"] * 1000)
        + " or true\nevents\n  event init then b := true end\nend\n")
    (tmp_path / "props.ltl").write_text(
        "ok = G F [pay]\ntoo_deep = " + " & ".join(["F [pay]"] * 3000) + "\n")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert run_cli(*argv) == (3, "error: input nests too deeply\n", "")
    code, report = run_json(*argv)
    assert code == 3 and report["result"] == {"error": "input nests too deeply"}


@pytest.mark.parametrize("argv,message", [
    (("translate", "--chain", str(VM_DIR / "chain.json"), "--at", "-1", "--prop", "phi1"),
     "level -1 out of range 0..4"),
    (("translate", "--chain", str(VM_DIR / "chain.json"), "--at", "9", "--prop", "phi1"),
     "level 9 out of range 0..4"),
    (("po", "--chain", str(VM_DIR / "chain.json"), "--step", "9"),
     "step 9 out of range 0..3"),
    (("beta", "--prop", f"@{VM_DIR / 'props.ltl'}"),
     f"--prop @{VM_DIR / 'props.ltl'} holds 9 properties, expected exactly one"),
    (("mc", str(VM_DIR / "vm4.eb"), "--prop", "@{tmp}/empty.ltl"),
     "--prop @{tmp}/empty.ltl holds 0 properties, expected at least one"),
    (("po", "--chain", "{tmp}/one.json", "--step", "0"),
     "chain vm-one has no refinement step"),
    (("preserve", "--chain", "{tmp}/one.json", "--at", "0", "--prop", "G ![selectChoc]"),
     "chain vm-one has no refinement step"),
], ids=["translate-at-negative", "translate-at-high", "po-step-high",
        "beta-prop-file-of-many", "mc-prop-file-of-none", "po-step-one-machine",
        "preserve-at-one-machine"])
def test_usage_error_names_the_flag_value(tmp_path, capsys, argv, message):
    """An out-of-range `--at` or `--step` is reported in the flag's own
    terms with the range it takes, or as a chain with no step to take, and
    a property file of the wrong size with the count it holds."""
    from ebltl.cli import main
    (tmp_path / "empty.ltl").write_text("")
    (tmp_path / "one.json").write_text(json.dumps(
        {"name": "vm-one", "machines": [str(VM_DIR / "vm1.eb")]}))
    assert main([a.replace("{tmp}", str(tmp_path)) for a in (*argv, "--json")]) == 3
    error = json.loads(capsys.readouterr().out)["result"]["error"]
    assert error == message.replace("{tmp}", str(tmp_path))


_VM01 = [str(VM_DIR / "vm0.eb"), str(VM_DIR / "vm1.eb")]


@pytest.mark.parametrize("manifest,message", [
    ({"machines": []}, "a chain needs at least one machine"),
    ({"machines": [str(LIFT_DIR / "lift.eb"), str(LIFT_DIR / "lift_prime.eb")],
      "links": [None, None]}, "chain {path} lists 2 machines but 2 links"),
    ({"machines": _VM01, "links": [{"renaming": {"ghost": "dispenseItem"}}]},
     "'ghost' is not a concrete event"),
    ({"machines": _VM01, "links": [{"renaming": {"pay": "ghost"}}]},
     "VM1.pay refines 'ghost', which is not an event of VM0"),
    ({"name": "skips", "machines": [str(VM_DIR / "vm1.eb"), str(VM_DIR / "vm3.eb")]},
     "VM3 declares refines 'VM2' but follows VM1 in chain 'skips'"),
    ({"name": 5, "machines": _VM01}, 'chain {path}: "name" must be a string'),
], ids=["no-machine", "links-count", "not-concrete", "unknown-abstract", "skipped-level",
        "name-not-a-string"])
def test_chain_manifest_error_message(tmp_path, capsys, manifest, message):
    """A chain manifest that names no machine, lists the wrong number of
    links, renames an event the concrete machine lacks or onto one the
    abstract machine lacks, skips a level or has a `name` that is not a
    string exits 3 with one `error:` line naming the fault, and the
    `--json` report carries the message."""
    from ebltl.cli import main
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(manifest))
    message = message.format(path=path)
    assert main(["po", "--chain", str(path)]) == 3
    assert capsys.readouterr().out == f"error: {message}\n"
    assert main(["po", "--chain", str(path), "--json"]) == 3
    assert json.loads(capsys.readouterr().out)["result"] == {"error": message}


def _parse_outcome(parse, argv, capsys):
    """The namespace `parse` reads from `argv`, or its exit code, with what
    it printed."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    return result, capsys.readouterr()


def test_subcommand_parser_reads_argv_as_the_full_parser(monkeypatch, capsys):
    """Every golden command line that starts with a subcommand's name gives
    the same namespace, `func` included, from that subcommand's parser
    alone as from the full parser; a line either rejects prints the same
    bytes and exits with the same code."""
    from ebltl import cli
    from tests.test_golden import MANIFEST

    monkeypatch.setenv("COLUMNS", "80")
    argvs = [row["argv"] for row in json.loads(MANIFEST.read_text())["rows"]
             if row["argv"][:1] and row["argv"][0] in cli._SUBCOMMANDS]
    assert len({argv[0] for argv in argvs}) == len(cli._SUBCOMMANDS)
    for argv in argvs:
        fast = _parse_outcome(cli._parse_args, argv, capsys)
        assert fast == _parse_outcome(cli.build_parser().parse_args, argv, capsys), argv


def test_a_subcommand_call_builds_only_its_own_parser(monkeypatch, capsys):
    """A well-formed call constructs one parser, its subcommand's; help and
    an unknown command build the full parser with every subparser."""
    from ebltl import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["beta", "--prop", "G F [pay]", "--json"],
                 ["mc", str(VM_DIR / "vm4.eb"), "--prop", "phi2"]):
        assert cli.main(argv) == 0
        assert built == [f"ebltl {argv[0]}"]
        built.clear()
    for argv in (["--help"], ["bogus"]):
        with pytest.raises(SystemExit):
            cli.main(argv)
        assert built == ["ebltl", *(f"ebltl {name}" for name in cli._SUBCOMMANDS)]
        built.clear()
    capsys.readouterr()


def test_shared_argument_specs_carry_no_state_between_calls(capsys):
    """The subcommand table shares one options dict per argument, so `--set`
    has one default list object across calls; argparse copies it before it
    appends, and neither `--set` nor `--bound-states` reaches the next call."""
    from ebltl import cli
    vm4 = str(VM_DIR / "vm4.eb")

    def result(*argv):
        cli.main([*argv, "--json"])
        return json.loads(capsys.readouterr().out)["result"]

    assert "capacity = 3\n" in result("parse", vm4, "--set", "capacity=3")["normalized"]
    assert "capacity = 2\n" in result("parse", vm4)["normalized"]
    assert result("explore", vm4, "--bound-states", "5")["kind"] == "bound"
    assert result("explore", vm4)["graph"]["bounds"]["max_states"] == 100_000


def test_main_reads_sys_argv_by_default(monkeypatch, capsys):
    from ebltl.cli import main
    monkeypatch.setattr(sys, "argv", ["ebltl", "beta", "--prop", "G F [pay]", "--json"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["command"] == "beta"


LIFT_EXPECTED = json.loads((LIFT_DIR / "expected.json").read_text())


_MANIFEST_SHAPE = (' needs a "machines" map of file names, a "properties" file name and '
                   'a "verdicts" list of objects with a "machine", a "property" and a '
                   'boolean "holds"')


@pytest.mark.parametrize("expected, message", [
    ('{"machines": ', " is not valid JSON: "),
    (json.dumps({k: v for k, v in LIFT_EXPECTED.items() if k != "properties"}),
     _MANIFEST_SHAPE),
    ("[]", _MANIFEST_SHAPE),
    (json.dumps({**LIFT_EXPECTED, "verdicts": [
        {"machine": "Elevator", "property": "top_then_ground", "holds": True}]}),
     ": a verdict names the unknown machine 'Elevator'"),
    (json.dumps({**LIFT_EXPECTED, "verdicts": [
        {"machine": "Lift", "property": "no_such_property", "holds": True}]}),
     ": a verdict names the unknown property 'no_such_property'"),
    (json.dumps({k: v for k, v in LIFT_EXPECTED.items() if k != "verdicts"}),
     _MANIFEST_SHAPE),
    (json.dumps({**LIFT_EXPECTED, "verdicts": {}}), _MANIFEST_SHAPE),
    (json.dumps({**LIFT_EXPECTED, "verdicts": [
        {"machine": "Lift", "property": "top_then_ground", "holds": "yes"}]}),
     _MANIFEST_SHAPE),
], ids=["bad-json", "no-properties", "top-level-list", "unknown-machine",
        "unknown-property", "no-verdicts", "verdicts-not-a-list", "holds-not-boolean"])
def test_oracle_rejects_malformed_corpus_entry(tmp_path, expected, message):
    """A malformed expected.json in an `oracle --corpus` directory raises
    its own EbltlError, and `oracle` prints that message as a usage error,
    not a traceback."""
    from ebltl.errors import EbltlError
    from ebltl.oracle import load_entry
    entry = tmp_path / "lift"
    entry.mkdir()
    for name in ("lift.eb", "lift_prime.eb", "props.ltl"):
        (entry / name).write_text((LIFT_DIR / name).read_text())
    (entry / "expected.json").write_text(expected)
    with pytest.raises(EbltlError) as caught:
        load_entry(entry)
    assert str(caught.value).startswith(f"{entry / 'expected.json'}{message}")
    code, out, err = run_cli("oracle", "--corpus", str(tmp_path))
    assert code == 3, out + err
    assert out == f"error: {caught.value}\n" and not err


def test_oracle_rejects_a_corpus_root_without_entries():
    """`--corpus` names the root whose subdirectories are entries; a root
    with none, such as one entry's own directory, is a usage error, not an
    empty run that passes."""
    code, out, err = run_cli("oracle", "--corpus", str(VM_DIR))
    assert code == 3, out + err
    assert f"no corpus entry under {VM_DIR}" in out
    assert "0 comparison(s)" not in out


def test_po_bound_states_covers_the_abstract_universe(tmp_path):
    """`--bound-states` also bounds the abstract universe the obligations
    enumerate: 201 x 201 candidate abstract states exceed a bound of 10
    although the concrete graph has only three states."""
    machine = ("machine {name}{refines}\nvariables\n  x : 0..200\n  y : 0..200\n"
               "events\n  event init then x := 0 || y := 0 end\n"
               "  event step{step} status ordinary when x < 2 then x := x + 1 end\nend\n")
    (tmp_path / "wide.eb").write_text(machine.format(name="Wide", refines="", step=""))
    (tmp_path / "narrow.eb").write_text(machine.format(
        name="Narrow", refines=" refines Wide", step=" refines step"))
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"name": "wide", "machines": ["wide.eb", "narrow.eb"]}))
    code, report = run_json("po", "--chain", str(chain), "--bound-states", "10")
    assert code == 4
    assert report["result"]["kind"] == "bound"
    assert "40401 candidate states" in report["result"]["error"]
    code, _ = run_json("po", "--chain", str(chain))
    assert code == 0


def as_dicts(value):
    """`value` with each graph in it as its dict form, `to_json_dict()`."""
    from ebltl.semantics import StateGraph
    if isinstance(value, StateGraph):
        return value.to_json_dict()
    if isinstance(value, dict):
        return {k: as_dicts(v) for k, v in value.items()}
    return value


def test_json_text_matches_json_dumps_on_golden_payloads(tmp_path, monkeypatch, capsys):
    """Every report that the golden corpus's `--json` and `--format graph`
    commands write is streamed by `_json_chunks`, whose pieces join to the
    text of `json.dumps(indent=2, sort_keys=True)` of the value with each
    graph as its `to_json_dict()`."""
    from ebltl import cli
    from ebltl.oracle import corpus_root
    from tests.test_golden import MANIFEST, write_mutant_chains

    chunks, streamed = cli._json_chunks, []

    def recording_chunks(value, indent="\n"):  # the writer's own nested calls pass `indent`
        if indent == "\n":
            streamed.append(value)
        return chunks(value, indent)
    monkeypatch.setattr(cli, "_json_chunks", recording_chunks)
    write_mutant_chains(tmp_path)
    monkeypatch.chdir(corpus_root())
    monkeypatch.setenv("COLUMNS", "80")
    written = 0
    for row in json.loads(MANIFEST.read_text())["rows"]:
        if "--json" in row["argv"] or "graph" in row["argv"]:
            try:
                cli.main([arg.replace("{mutants}", str(tmp_path)) for arg in row["argv"]])
            except SystemExit:  # argparse's usage and help exits write no report
                continue
            written += 1
    capsys.readouterr()
    assert len(streamed) == written > 100
    for value in streamed:
        assert "".join(chunks(value)) == json.dumps(as_dicts(value), indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    {"ascii": "plain", "non-ascii": "é ß 中 😀", "controls": "\x00\x1f\n\t\r\"\\\x7f",
     "  key": "\ud800 lone surrogate", "": ""},
    {}, [], (), "", {"a": {}, "b": [], "c": ((),), "d": [[{}]], "e": {"f": {}}},
    (1, (2, [3, ()])), [True, False, None, 0, -1, 1], {"t": True, "f": False, "n": None},
    [-2**63 - 1, -2**100, 2**64 + 1, 2**200], "top-level", 7, True, False, None,
], ids=lambda v: type(v).__name__)
def test_json_text_matches_json_dumps(value):
    from ebltl.cli import _json_text
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    1.5, {"a": [0.0]}, {1, 2}, {"a": frozenset()}, {1: "int key"}, {"a": {2: 3}}, {"a": 1, 2: 3},
], ids=["float", "nested-float", "set", "nested-frozenset", "int-key", "nested-int-key",
        "mixed-keys"])
def test_json_text_rejects_other_types(value):
    from ebltl.cli import _json_text
    with pytest.raises(TypeError):
        _json_text(value)


def edge_list_text(graph) -> str:
    """The reference edge list: one `src event tgt` line per edge, read
    from the record's firing tuples."""
    return "".join(f"{src} {event} {t}\n"
                   for src, event, _params, targets in graph.firings for t in targets)


def hand_built_graphs():
    from types import SimpleNamespace

    from ebltl.semantics import FiringRecord, StateGraph, make_graph
    mixed = StateGraph(  # states holding both True and 1, set-valued and parameterised firings
        machine=SimpleNamespace(name="Caf\u00e9 \u4e2d"), var_names=("n", "flag", "s"),
        states=[(1, True, frozenset()), (True, 1, frozenset({"b", "a"})),
                (0, False, frozenset({"a"}))],
        initial=(0,),
        firings=FiringRecord(["go", "pick", "\u00e9v"], [
            (0, "go", (("x", True),), (1,)), (0, "go", (("x", 1),), (1, 2)),
            (1, "pick", (("s", frozenset({"b", "a"})), ("k", 0)), (0,)),
            (1, "pick", (("s", frozenset()), ("k", False)), ()),
            (2, "\u00e9v", (), (2, 0)), (1, "go", (("x", True),), (2,))]),
        alphabet=("go", "pick", "\u00e9v"), bounds={"max_states": 3, "reached_states": 3})
    return {
        "make_graph": make_graph(4, [0, 2], [(0, "a", 1), (1, "b", 0), (2, "a", 2), (1, "a", 3)],
                                 {"a", "b", "c"}),
        "no-firings": make_graph(2, [0], [], ()),
        "no-states": make_graph(0, [], [], ()),
        "mixed": mixed,
    }


@pytest.mark.parametrize("batch", [1, 2, 4096])
@pytest.mark.parametrize("name", ["make_graph", "no-firings", "no-states", "mixed"])
def test_graph_writer_matches_json_dumps_on_hand_built_graphs(monkeypatch, name, batch):
    """The writer's pieces join to `json.dumps` of the graph's dict form, at
    the top level and nested in a report, for any piece size; the edge list
    is the old `edge_list_text`, or one empty line for a graph without edges."""
    from ebltl import cli
    monkeypatch.setattr(cli, "_BATCH", batch)
    graph = hand_built_graphs()[name]
    for value in (graph, {"result": {"graph": graph, "z": [1]}, "a": {}}):
        assert "".join(cli._json_chunks(value)) == \
            json.dumps(as_dicts(value), indent=2, sort_keys=True)
    pieces = list(cli._edge_list_chunks(graph))
    assert "".join(pieces) == (edge_list_text(graph) or "\n")
    assert all(piece.count("\n") <= batch for piece in pieces)


class Writes(list):
    """A stdout that keeps each write apart."""
    write = list.append

    def flush(self):
        pass


def test_graph_reports_are_written_in_bounded_pieces(monkeypatch):
    """`explore` writes a graph report to stdout a piece at a time, none
    holding more than `_BATCH` edges, and the bytes are those of the dict
    form and of the old edge list."""
    from ebltl import cli
    from ebltl.machine_parser import parse_machine_file
    from ebltl.semantics import explore
    monkeypatch.setattr(cli, "_BATCH", 100)
    graph = explore(parse_machine_file(VM_DIR / "vm4.eb", {"capacity": 3}))
    as_json = json.dumps(graph.to_json_dict(), indent=2, sort_keys=True)
    for argv, lines_per_edge in [(["--json"], 16), (["--format", "graph"], 16),
                                 (["--format", "edgelist"], 1)]:
        writes = Writes()
        monkeypatch.setattr(sys, "stdout", writes)
        assert cli.main(["explore", str(VM_DIR / "vm4.eb"), "--set", "capacity=3", *argv]) == 0
        text = "".join(writes)
        if argv == ["--json"]:
            assert json.loads(text)["result"]["graph"] == json.loads(as_json)
        else:
            assert text == (as_json + "\n" if argv[1] == "graph" else edge_list_text(graph))
        assert len(writes) > len(graph.firings.targets) // 100
        assert max(w.count("\n") for w in writes) <= 100 * lines_per_edge


def state_lines_text(graph) -> str:
    """The reference `explore --verbose` state lines: `json.dumps` of each
    state's dict."""
    return "".join(f"  state {i}: {json.dumps(graph.state_json(i), sort_keys=True)}\n"
                   for i in range(len(graph.states)))


@pytest.mark.parametrize("name", ["make_graph", "no-firings", "no-states", "mixed"])
def test_verbose_state_lines_match_json_dumps_on_hand_built_graphs(name):
    """Each state line is `json.dumps` of its dict, `True` and `1` kept apart."""
    from ebltl import cli
    graph = hand_built_graphs()[name]
    assert "".join(cli._state_lines(graph)) == state_lines_text(graph)


DRAIN = ("machine Drain\nvariables\n  n : 0..40\nevents\n  event init then n := 40 end\n"
         "  event down\n    status ordinary\n    when n > 0 then n := n - 1 end\nend\n")


def test_verbose_report_is_written_in_bounded_pieces(monkeypatch, tmp_path):
    """`explore --verbose` writes its state lines a piece at a time, none
    holding more than `_BATCH` of them, in the bytes of one `json.dumps`
    per state, and ends with the deadlock line when there is one."""
    from ebltl import cli
    from ebltl.machine_parser import parse_machine_file
    from ebltl.semantics import explore
    monkeypatch.setattr(cli, "_BATCH", 10)
    drain = tmp_path / "drain.eb"
    drain.write_text(DRAIN)
    down = ", ".join(["down"] * 40)
    for path, name, dead in [(VM_DIR / "vm4.eb", "VM4", ""),
                             (drain, "Drain", f"deadlocked state 40 reached by {down}\n")]:
        graph = explore(parse_machine_file(path, {"capacity": 1}))
        writes = Writes()
        monkeypatch.setattr(sys, "stdout", writes)
        assert cli.main(["explore", str(path), "--set", "capacity=1", "--verbose"]) == 0
        head = (f"{name}: {len(graph.states)} state(s), {len(graph.firings.targets)} edge(s), "
                f"{len(graph.deadlocks)} deadlock(s)\ninvariant: holds\n")
        assert "".join(writes) == head + state_lines_text(graph) + dead
        assert len(writes) > len(graph.states) // 10
        assert max(w.count("\n") for w in writes) <= 10
