import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CORPUS, ROOT
from test_conformance import CAPACITY_CYCLE
from test_explore import KNOT

from sdflow.cli import EXIT_CONFORMANCE, EXIT_DEADLOCK, EXIT_PIPE, main


def sdflow(*args, stdout=subprocess.PIPE):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "sdflow.cli", *args],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          cwd=ROOT, env=env)


GOOD = str(CORPUS / "good" / "downsampler.sdf")
CYCLE = str(CORPUS / "rejected" / "undelayed_cycle.sdf")
BAD = str(CORPUS / "negative" / "n01_send_on_recv_polarity.sdf")


def test_check_accepts_downsampler():
    out = sdflow("check", GOOD)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


@pytest.mark.parametrize("family, axis", [("deep_parens", 300),
                                          ("long_actor", 2000)])
def test_check_accepts_perfbench_deep_and_long_programs(
        family, axis, tmp_path, capsys, monkeypatch):
    # perfbench's check-cli workload counts both as known failures
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import gen
    program = gen.FAMILIES[family](axis)
    path = tmp_path / f"{program.name}.sdf"
    path.write_text(program.source)
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_check_rejects_with_rule_on_stderr():
    out = sdflow("check", BAD)
    assert out.returncode == 1
    assert "Val Send" in out.stderr
    assert out.stdout == ""


# one-actor programs, each ill-typed by one value rule that no corpus
# program reaches; kept here, not in corpus/, which perfbench counts
VALUE_RULES = [
    ("let r = 1; !r", "[Val Deref] at 3:22 dereferencing a non-reference"),
    ("true + 1", "[Val Op] at 3:16 operator + expects integers"),
    ("fromIndex(true)",
     "[Val FromIndex] at 3:11 fromIndex expects a loop index"),
    ("(1)(2)", "[Val App] at 3:14 calling a non-procedure"),
    ("size(true)", "[Val Size] at 3:11 size constants take integer literals"),
    ("index(true)",
     "[Val Index] at 3:11 index constants take integer literals"),
    ("fromSize(true)", "[Val Int] at 3:11 fromSize expects a size value"),
    ("for (t, x in 1..size(2)) when (2 | x) true",
     "[Val When] at 3:36 guarded body must produce an integer"),
]


@pytest.mark.parametrize("body, stderr", VALUE_RULES,
                         ids=["deref", "op", "from_index", "app", "size",
                              "index", "from_size", "when"])
def test_check_rejects_an_ill_typed_value_with_its_rule(body, stderr, tmp_path,
                                                        capsys):
    path = tmp_path / "actor.sdf"
    path.write_text(f"flow eps;\nnetwork {{\n  actor {{ {body} }}\n}}\n")
    with pytest.raises(SystemExit) as exited:
        main(["check", str(path)])
    assert exited.value.code == 1
    assert capsys.readouterr() == ("", stderr + "\n")


def test_schedule_emits_json():
    out = sdflow("schedule", GOOD, "--format", "json")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    actions = [s["action"] for s in payload["schedule"]]
    assert actions == ["produce", "consume", "produce", "consume"]


def test_schedule_cycle_exits_2():
    out = sdflow("schedule", CYCLE)
    assert out.returncode == 2
    assert "cycle" in out.stderr


def test_run_trace_counts():
    out = sdflow("run", GOOD, "--size", "s=8", "--scheduler", "roundRobin",
                 "--format", "json")
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    recvs = [t for t in payload["trace"]
             if t["label"]["kind"] == "recv" and t["label"]["channel"] == "i"]
    sends = [t for t in payload["trace"]
             if t["label"]["kind"] == "send" and t["label"]["channel"] == "o"]
    assert len(recvs) == 8 and len(sends) == 4


def test_run_deadlock_exits_3():
    out = sdflow("run", CYCLE, "--size", "n=2")
    assert out.returncode == 3


def test_run_json_reproducible_with_seed():
    a = sdflow("run", GOOD, "--size", "s=4", "--scheduler", "random",
               "--seed", "7", "--format", "json")
    b = sdflow("run", GOOD, "--size", "s=4", "--scheduler", "random",
               "--seed", "7", "--format", "json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_conform_ok():
    out = sdflow("conform", GOOD, "--size", "s=4", "--format", "json")
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    assert payload["preservation"]["violations"] == []
    assert payload["progress"]["complete"] is True


def test_conform_violation_exits_4_with_reasons(tmp_path):
    prog = tmp_path / "capacity_cycle.sdf"
    prog.write_text(CAPACITY_CYCLE)
    out = sdflow("conform", str(prog))
    assert out.returncode == EXIT_CONFORMANCE, out.stderr
    assert "Traceback" not in out.stderr
    assert ("violation at step 5 (run): expected complete execution, got "
            "deadlock") in out.stderr
    assert "buffer c0 is full" in out.stderr


def test_usage_error_exits_64():
    out = sdflow("frobnicate", GOOD)
    assert out.returncode == 64


@pytest.mark.parametrize("argv, message", [
    ([], "missing command: check, schedule, run or conform"),
    (["frobnicate", GOOD], "unknown command 'frobnicate'"),
    (["check"], "check expects one input file, got 0"),
    (["check", GOOD, GOOD], "check expects one input file, got 2"),
    (["check", GOOD, "--frob"], "check has no option --frob"),
    (["check", GOOD, "--seed", "1"], "check has no option --seed"),
    # argparse took a prefix of an option; the reader does not
    (["check", GOOD, "--form", "json"], "check has no option --form"),
    (["run", GOOD, "--seed"], "--seed expects a value"),
    (["check", GOOD, "--format", "--size", "s=2"], "--format expects a value"),
    (["check", GOOD, "--format", "xml"],
     "--format must be one of text, json, got 'xml'"),
    (["conform", GOOD, "--scheduler=exhaustive"],
     "--scheduler must be one of roundRobin, random, got 'exhaustive'"),
    (["run", GOOD, "--seed", "x"], "--seed expects an integer, got 'x'"),
    (["run", GOOD, "--max-states=1.5"],
     "--max-states expects an integer, got '1.5'"),
], ids=["no command", "unknown command", "no input", "two inputs",
        "unknown option", "option of another command", "prefix",
        "no value at the end", "no value before an option", "bad format",
        "bad scheduler", "bad seed", "bad budget"])
def test_malformed_command_line_is_one_usage_line(argv, message, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 64
    assert capsys.readouterr() == ("", f"sdflow: {message}\n")


def test_options_take_either_form_before_or_after_the_input(capsys):
    outputs = []
    for argv in (["run", GOOD, "--size", "s=2", "--format", "json"],
                 ["run", "--size=s=2", "--format=json", GOOD],
                 ["run", "--format", "json", "--size", "s=2", "--", GOOD]):
        assert main(argv) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].out.startswith('{"status": "done"')


@pytest.mark.parametrize("argv", [["-h"], ["check", "--help"],
                                  ["run", GOOD, "--size", "s=2", "-h"]])
def test_help_prints_the_synopsis_and_exits_0(argv):
    out = sdflow(*argv)
    assert out.returncode == 0
    assert out.stdout.startswith("usage: sdflow check|schedule|run|conform")
    assert out.stderr == ""


def test_bad_size_exits_64():
    out = sdflow("run", GOOD, "--size", "s=zero")
    assert out.returncode == 64


@pytest.mark.parametrize("pair", ["=3", "s", "s="])
def test_malformed_size_is_named(pair):
    out = sdflow("check", GOOD, "--size", pair)
    assert out.returncode == 64
    assert out.stderr == f"sdflow: --size expects NAME=VALUE, got '{pair}'\n"


def test_repeated_size_is_a_usage_error():
    out = sdflow("run", GOOD, "--size", "s=2", "--size", "s=3")
    assert out.returncode == 64
    assert out.stderr == "sdflow: --size s given more than once\n"


@pytest.mark.parametrize("command", ["check", "schedule", "run", "conform"])
def test_undeclared_size_fails_the_check(command):
    out = sdflow(command, GOOD, "--size", "s=2", "--size", "typo=4")
    assert out.returncode == 1
    assert out.stderr == "[Kind Size] unknown size parameter typo\n"
    assert out.stdout == ""


@pytest.mark.parametrize("command", ["run", "conform"])
@pytest.mark.parametrize("budget", ["0", "-1"])
def test_nonpositive_state_budget_is_a_usage_error(command, budget):
    out = sdflow(command, GOOD, "--size", "s=2", "--max-states", budget)
    assert out.returncode == 64
    assert out.stderr == "sdflow: --max-states must be positive\n"


def test_truncated_exploration_says_so():
    out = sdflow("run", GOOD, "--size", "s=2", "--scheduler", "exhaustive",
                 "--max-states", "1")
    assert out.returncode == 3
    assert out.stdout == "truncated after 1 states\n"
    out = sdflow("run", GOOD, "--size", "s=2", "--scheduler", "exhaustive",
                 "--max-states", "1", "--format", "json")
    assert out.returncode == 3
    assert json.loads(out.stdout)["truncated"] is True
    out = sdflow("conform", GOOD, "--size", "s=2", "--max-states", "1")
    assert out.returncode == EXIT_CONFORMANCE
    assert out.stdout.splitlines()[-1] == "progress: truncated after 1 states"


def test_a_cycle_is_reported_as_divergence(tmp_path, capsys):
    prog = tmp_path / "knot.sdf"
    prog.write_text(KNOT)

    def exits(*argv):
        with pytest.raises(SystemExit) as raised:
            main([*argv, str(prog)])
        return raised.value.code, capsys.readouterr().out

    assert exits("run", "--scheduler", "exhaustive") == \
        (EXIT_DEADLOCK, "diverges: 6 states, 0 outcome(s)\n")
    code, out = exits("run", "--scheduler", "exhaustive", "--format", "json")
    assert code == EXIT_DEADLOCK
    assert json.loads(out)["status"] == "diverges"
    # `run` under roundRobin spends its step budget first
    code, out = exits("conform")
    assert code == EXIT_CONFORMANCE
    assert out.splitlines()[-1] == "progress: 6 states, cycle found"


def test_explored_states_never_exceed_the_budget():
    def exhaustive(budget):
        out = sdflow("run", GOOD, "--size", "s=2", "--scheduler",
                     "exhaustive", "--max-states", str(budget),
                     "--format", "json")
        return out.returncode, json.loads(out.stdout)

    code, full = exhaustive(300_000)
    assert code == 0 and not full["truncated"]
    # a budget of exactly the states visited is enough; one less is not
    assert exhaustive(full["states"]) == (0, full)
    code, cut = exhaustive(full["states"] - 1)
    assert code == 3 and cut["truncated"]
    assert cut["states"] == full["states"] - 1


def test_closed_stdout_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = sdflow("schedule", GOOD, stdout=write_end)
    finally:
        os.close(write_end)
    assert out.returncode == EXIT_PIPE
    assert out.stderr == ""


def test_run_json_buffer_sizes_list_array_elements():
    # one list per channel array, one int per plain channel
    sizes = {}
    for name in ("fanin_array.sdf", "downsampler_array.sdf"):
        out = sdflow("run", str(CORPUS / "good" / name), "--size", "s=2",
                     "--format", "json")
        assert out.returncode == 0, out.stderr
        sizes[name] = [t["bufferSizes"] for t in json.loads(out.stdout)["trace"]]
    assert sizes["fanin_array.sdf"] == [{"a": a} for a in (
        [0, 0], [0, 0], [0, 0], [1, 0], [1, 1], [0, 1], [0, 1], [0, 1],
        [0, 0], [0, 0], [0, 0])]
    assert sizes["downsampler_array.sdf"]
    for step in sizes["downsampler_array.sdf"]:
        assert step.keys() == {"i", "o"}
        assert isinstance(step["o"], int) and len(step["i"]) == 2


def test_conform_explores_and_conforms_a_5000_statement_actor(
        tmp_path, capsys, monkeypatch):
    # the exploration state key hashes the actor's 5000-link SeqE spine
    assert sys.getrecursionlimit() <= 1000
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import gen
    path = tmp_path / "long.sdf"
    path.write_text(gen.long_actor(5000).source)
    assert main(["conform", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "preservation: 0 violations over 25000 steps",
        "progress: 25001 states, complete"]
