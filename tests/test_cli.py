import contextlib
import dataclasses
import functools
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from briberace import cli, model, simulate
from briberace.cli import fixture_path, format_btc, main

WHALE = str(fixture_path("whale20"))
TABLE2 = str(fixture_path("table2"))
DATA = Path(__file__).resolve().parent / "data"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def grab(pattern, text):
    m = re.search(pattern, text)
    assert m, f"{pattern!r} not found in:\n{text}"
    return float(m.group(1))


def test_analyze_bs_worked_example(capsys):
    code, out, _ = run_cli(
        ["analyze", "--pools", WHALE, "--strategy", "bs", "--target", "M"], capsys
    )
    assert code == 0
    assert grab(r"single-visit cost\s+([\d.]+)", out) == pytest.approx(1495.6, abs=0.2)
    assert grab(r"success \(constant view\)\s+([\d.]+)%", out) == pytest.approx(0.2656, abs=1e-3)
    assert grab(r"attacker recapture\s+([\d.]+)", out) == pytest.approx(997.1, abs=0.1)
    assert grab(r"target recapture\s+([\d.]+)", out) == pytest.approx(498.5, abs=0.1)
    assert "state 6: total 876.27" in out


def test_analyze_gvc_emits_schedule_and_outcome(capsys, tmp_path):
    out_file = tmp_path / "gvc.json"
    code, out, _ = run_cli(
        [
            "analyze", "--pools", TABLE2, "--strategy", "gvc", "--objective", "ac",
            "--start-state", "4", "--seed", "0",
            "--format", "json", "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["schema_version"] == 1
    rec = payload["outcome"]
    assert rec["strategy"] == "GVC_AC"
    assert len(rec["schedule"]) == 7
    assert rec["cost_unconditional"] < 115.5
    assert 0.3 < rec["success_prob"] < 0.6


def test_analyze_json_without_out_prints_the_record(capsys, tmp_path):
    # as sweep-start and sweep-reward do, analyze --format json prints the
    # record that --out would write, in place of the text summary
    args = ["analyze", "--pools", WHALE, "--strategy", "bs", "--target", "M", "--format", "json"]
    out_file = tmp_path / "bs.json"
    code, to_file, _ = run_cli([*args, "--out", str(out_file)], capsys)
    assert code == 0 and "single-visit cost" in to_file
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert json.loads(out)["outcome"]["strategy"] == "BS"
    assert out.encode() == out_file.read_bytes()


def test_validate_json_without_out_prints_the_record(capsys, tmp_path):
    # validate --format json without --out prints the record that --out
    # would write and nothing else, and keeps its exit code (1: FAILED)
    args = ["validate", "--pools", WHALE, "--strategy", "bs", "--target", "M",
            "--trials", "1000", "--format", "json"]
    out_file = tmp_path / "bs.json"
    code, to_file, _ = run_cli([*args, "--out", str(out_file)], capsys)
    assert code == 1 and "validation FAILED" in to_file
    code, out, _ = run_cli(args, capsys)
    assert code == 1
    record = json.loads(out)
    assert record["report"] == "validate" and record["passed"] is False
    assert out.encode() == out_file.read_bytes()


def test_analyze_csv_report(capsys, tmp_path):
    out_file = tmp_path / "bs.csv"
    code, _, _ = run_cli(
        [
            "analyze", "--pools", WHALE, "--strategy", "bs", "--target", "M",
            "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    text = out_file.read_text()
    lines = text.split("\n")
    assert lines[0] == "metric,value"
    assert not text.endswith("\r\n")
    assert "bribe_state_0,1e-8" in text  # dust is never rendered as zero


def test_analyze_usage_error_start_state(capsys):
    code, _, err = run_cli(
        ["analyze", "--pools", WHALE, "--strategy", "bs", "--start-state", "7"], capsys
    )
    assert code == 2
    record = json.loads(err)
    assert record["error"]["type"] == "CliError"


def test_gvc_requires_objective(capsys):
    code, _, err = run_cli(["analyze", "--pools", TABLE2, "--strategy", "gvc"], capsys)
    assert code == 2
    assert "objective" in json.loads(err)["error"]["message"]


def test_sweep_start_all_applies_the_objective_to_gvc_rows(capsys, tmp_path):
    def sweep(*extra):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            [
                "sweep-start", "--pools", WHALE, "--target", "M", "--strategy",
                *extra, "--states", "6", "--out", str(out_file),
            ],
            capsys,
        )
        assert code == 0
        return out_file.read_text().strip().split("\n")[1:]

    rac = sweep("all", "--objective", "rac")
    assert [r.split(",")[0] for r in rac] == ["BS", "BFF", "CRB1", "CRB2", "GVC_RAC"]
    assert rac[-1] == sweep("gvc", "--objective", "rac")[0]
    assert rac[:-1] == sweep("all", "--objective", "ac")[:-1]
    # without the flag the gvc rows stay ac
    assert sweep("all")[-1] == sweep("gvc", "--objective", "ac")[0]


@pytest.mark.parametrize("command, extra", [
    ("analyze", []), ("sweep-reward", ["--rewards", "6.25"]), ("validate", ["--trials", "1000"]),
])
def test_only_sweep_start_takes_strategy_all(command, extra, capsys):
    code, _, err = run_cli(
        [command, "--pools", WHALE, "--strategy", "all", *extra], capsys
    )
    assert code == 2
    record = json.loads(err)["error"]
    assert record["type"] == "CliError"
    assert record["message"] == "only sweep-start takes --strategy all"


def test_objective_refused_for_a_strategy_without_one(capsys):
    code, _, err = run_cli(
        ["analyze", "--pools", WHALE, "--strategy", "bs", "--objective", "rac"], capsys
    )
    assert code == 2
    assert "objective" in json.loads(err)["error"]["message"]


def test_sweep_start_monotone_bs(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        [
            "sweep-start", "--pools", TABLE2, "--strategy", "bs",
            "--states", "1,2,3,4,5,6", "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    rows = out_file.read_text().strip().split("\n")
    assert rows[0] == "strategy,start_state,success_prob,cost_unconditional,cost_on_success"
    succ = [float(r.split(",")[2]) for r in rows[1:]]
    assert succ == sorted(succ, reverse=True)  # deeper starts succeed less


def test_sweep_start_bff_anchor_row(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    run_cli(
        [
            "sweep-start", "--pools", TABLE2, "--strategy", "bff",
            "--states", "4", "--out", str(out_file),
        ],
        capsys,
    )
    row = out_file.read_text().strip().split("\n")[1].split(",")
    assert row[0] == "BFF" and row[1] == "4"
    assert float(row[2]) == pytest.approx(0.60, abs=0.05)


def test_sweep_start_empty_states_is_usage_error(capsys):
    code, _, err = run_cli(
        ["sweep-start", "--pools", TABLE2, "--strategy", "bs", "--states", ""], capsys
    )
    assert code == 2
    assert "empty" in json.loads(err)["error"]["message"]


def test_sweep_reward_monotone_and_single_point(capsys, tmp_path):
    out_file = tmp_path / "reward.csv"
    code, _, _ = run_cli(
        [
            "sweep-reward", "--pools", WHALE, "--strategy", "bs", "--target", "M",
            "--rewards", "6.25,3.125,1.5625", "--out", str(out_file),
        ],
        capsys,
    )
    assert code == 0
    rows = out_file.read_text().strip().split("\n")[1:]
    costs = [float(r.split(",")[4]) for r in rows]
    rewards = [float(r.split(",")[1]) for r in rows]
    assert rewards == sorted(rewards)
    assert costs == sorted(costs)  # halving the reward slashes the cost
    single = tmp_path / "single.csv"
    run_cli(
        [
            "sweep-reward", "--pools", WHALE, "--strategy", "bs", "--target", "M",
            "--rewards", "6.25", "--out", str(single),
        ],
        capsys,
    )
    only = single.read_text().strip().split("\n")[1].split(",")
    assert float(only[5]) == pytest.approx(1495.59, abs=0.01)


def test_sweep_reward_rejects_nonpositive(capsys):
    for rewards in ("6.25,-1", "6.25,nan"):
        code, out, err = run_cli(
            ["sweep-reward", "--pools", WHALE, "--strategy", "bs", "--rewards", rewards],
            capsys,
        )
        assert code == 2 and out == ""
        assert "positive" in json.loads(err)["error"]["message"]


def test_validate_passes_and_corrupt_fails(capsys, monkeypatch):
    args = [
        "validate", "--pools", WHALE, "--strategy", "bs", "--target", "M",
        "--trials", "100000", "--seed", "4",
    ]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert "validation PASSED" in out
    # negative control: the oracle races a fork 0.05 stronger at every state
    from_outcome = simulate.RacePolicy.from_outcome

    def corrupted(outcome):
        policy = from_outcome(outcome)
        fork = tuple(min(p + 0.05, 1.0 - 1e-9) for p in policy.fork_power)
        return dataclasses.replace(policy, fork_power=fork)

    monkeypatch.setattr(simulate.RacePolicy, "from_outcome", corrupted)
    code, out, _ = run_cli(args, capsys)
    assert code == 1
    assert "validation FAILED" in out


def test_validate_prints_discarded_trials_and_worst_z(capsys, tmp_path):
    report = tmp_path / "validate.csv"
    code, out, _ = run_cli(
        [
            "validate", "--pools", WHALE, "--strategy", "bs", "--target", "M",
            "--trials", "20000", "--seed", "12", "--out", str(report),
        ],
        capsys,
    )
    assert code == 0
    assert "discarded trials 0 of 20000" in out
    worst = grab(r"worst \|z\| ([\d.]+) \(", out)
    rows = report.read_text().splitlines()[1:]
    assert worst == pytest.approx(max(float(r.split(",")[4]) for r in rows), abs=0.01)
    assert out.rstrip().endswith("validation PASSED")


def test_validate_fails_when_trials_hit_the_event_cap(capsys, tmp_path, monkeypatch):
    # at a cap of 80 events, 16 of these trials are discarded while every
    # metric of the kept ones still agrees: the discards alone fail it
    monkeypatch.setattr(simulate, "SimConfig", functools.partial(simulate.SimConfig, max_events=80))
    report = tmp_path / "validate.json"
    code, out, _ = run_cli(
        [
            "validate", "--pools", WHALE, "--strategy", "bs", "--target", "M",
            "--trials", "20000", "--seed", "12", "--format", "json", "--out", str(report),
        ],
        capsys,
    )
    assert code == 1
    assert "discarded trials 16 of 20000" in out
    assert "FAIL 16 trials hit the event cap and were discarded" in out
    assert out.rstrip().endswith("validation FAILED")
    data = json.loads(report.read_text())
    assert data["passed"] is False
    assert all(row["passed"] == "true" for row in data["rows"])


def test_validate_prints_event_count_and_longest_trial(capsys, tmp_path):
    report = tmp_path / "validate.json"
    args = [
        "validate", "--pools", WHALE, "--strategy", "bs", "--target", "M",
        "--trials", "20000", "--seed", "12",
    ]
    code, out, _ = run_cli(args + ["--format", "json", "--out", str(report)], capsys)
    assert code == 0
    events = int(grab(r"events (\d+), longest kept trial \d+ steps", out))
    longest = int(grab(r"longest kept trial (\d+) steps", out))
    rows = {r["metric"]: r for r in json.loads(report.read_text())["rows"]}
    mean_steps = float(rows["expected_steps"]["empirical"])
    assert events / 20000 == pytest.approx(mean_steps, rel=1e-5)
    assert longest > mean_steps
    assert "events" not in report.read_text()


def test_reports_byte_identical_across_runs(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "validate", "--pools", WHALE, "--strategy", "bs", "--target", "M",
        "--trials", "20000", "--seed", "12",
    ]
    run_cli(args + ["--out", str(a)], capsys)
    run_cli(args + ["--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_main_reuses_one_parser_through_errors_help_and_reports(capsys, tmp_path, monkeypatch):
    # main builds its parser once per process; an argparse error, a refusal
    # and --help on that parser leave the later reports byte-identical to
    # the goldens, on the first call and on a repeat
    parser = cli._parser()

    def rebuilt():
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--pools", TABLE2])
    assert exc.value.code == 2
    assert "the following arguments are required: --strategy" in capsys.readouterr().err
    code, out, err = run_cli(["analyze", "--pools", TABLE2, "--strategy", "all"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": {"type": "CliError", "message": "only sweep-start takes --strategy all"}
    }
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: briberace validate [-h] --pools POOLS")
    reports = {
        "analyze_gvc_ac_table2_start4.csv": [
            "analyze", "--pools", TABLE2, "--target", "P2", "--start-state", "4",
            "--strategy", "gvc", "--objective", "ac",
        ],
        "sweep_start_all_deep512.csv": [
            "sweep-start", "--pools", str(DATA / "deep512.pools"), "--strategy", "all",
            "--confirmations", "2", "--states", "0,1,2",
        ],
    }
    for repeat in range(2):
        for golden, args in reports.items():
            out_file = tmp_path / f"{repeat}-{golden}"
            code, _, err = run_cli([*args, "--out", str(out_file)], capsys)
            assert code == 0 and err == ""
            assert out_file.read_bytes() == (DATA / golden).read_bytes()
    assert cli._parser() is parser


SWEEP_REWARD = ["sweep-reward", "--pools", TABLE2, "--target", "P2", "--start-state", "4",
                "--strategy", "crb1", "--rewards", "3.125,6.25,12.5"]
VALIDATE = ["validate", "--pools", TABLE2, "--start-state", "4", "--strategy", "bff",
            "--trials", "5000", "--seed", "7"]
DEEP512 = str(DATA / "deep512.pools")
REWARDS = "6.25,1.5625,12.5,3.125"  # unsorted: the report lists them in ascending order


def sweep_start(strategy, states="0,1,2,3,4,5,6"):
    return ["sweep-start", "--pools", TABLE2, "--target", "P2", "--strategy", strategy,
            "--states", states]


def sweep_reward(strategy, pools, rewards=REWARDS):
    if pools == TABLE2:
        pools = [TABLE2, "--target", "P2", "--start-state", "4"]
    else:
        pools = [pools]
    return ["sweep-reward", "--pools", *pools, "--strategy", strategy, "--rewards", rewards]


GOLDENS = [
    ("sweep_reward_crb1_table2_start4.csv", SWEEP_REWARD),
    ("sweep_reward_crb1_table2_start4.json", [*SWEEP_REWARD, "--format", "json"]),
    ("validate_bff_table2_start4_seed7.csv", VALIDATE),
    ("validate_bff_table2_start4_seed7.json", [*VALIDATE, "--format", "json"]),
    ("analyze_bs_whale20_stdout.txt",
     ["analyze", "--pools", WHALE, "--target", "M", "--strategy", "bs"]),
    ("validate_bff_table2_start4_seed7_stdout.txt", VALIDATE),
    ("help.txt", ["--help"]),
    ("help_analyze.txt", ["analyze", "--help"]),
    ("help_sweep-start.txt", ["sweep-start", "--help"]),
    ("help_sweep-reward.txt", ["sweep-reward", "--help"]),
    ("help_validate.txt", ["validate", "--help"]),
    # captured before start states and rewards shared one solve per core
    *[(f"sweep_start_{strategy}_table2.csv", sweep_start(strategy))
      for strategy in ("bs", "bff", "crb1", "crb2")],
    *[(f"sweep_reward_{strategy}_{name}.csv", sweep_reward(strategy, pools))
      for strategy in ("bs", "crb2")
      for name, pools in (("table2_start4", TABLE2), ("deep512", DEEP512))],
    # the gvc search's optimum at every start, which the search path can move
    *[(f"sweep_start_gvc_{objective}_table2.csv", [*sweep_start("gvc"), "--objective", objective])
      for objective in ("ac", "rac")],
    # deep crb2: every start above the core runs its own attacker-only tail
    ("sweep_start_crb2_deep512_c11.csv",
     ["sweep-start", "--pools", DEEP512, "--strategy", "crb2", "--confirmations", "11",
      "--states", ",".join(map(str, range(12)))]),
    *[(f"analyze_{strategy}_deep512_c11_start7.json",
       ["analyze", "--pools", DEEP512, "--strategy", strategy, "--confirmations", "11",
        "--start-state", "7", "--format", "json"])
      for strategy in ("crb2", "bs")],
    # an attacker within 1e-12 of the whole network: crb2's chains are capped
    ("analyze_crb2_capped_c3_start2.json",
     ["analyze", "--pools", str(DATA / "capped.pools"), "--target", "M1", "--strategy", "crb2",
      "--confirmations", "3", "--start-state", "2", "--format", "json"]),
]


def answer(argv, capsys):
    """``main(argv)``'s exit code, stdout and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def check_golden(golden, args, capsys, tmp_path, monkeypatch):
    # a *_stdout.txt or help golden is what the command prints (help at 80
    # columns); any other golden is the report that --out writes
    monkeypatch.setenv("COLUMNS", "80")
    expected = (DATA / golden).read_bytes()
    to_stdout = golden.endswith(".txt")
    out_file = tmp_path / golden
    got, out, err = answer(args if to_stdout else [*args, "--out", str(out_file)], capsys)
    assert got == 0 and err == ""
    assert (out.encode() if to_stdout else out_file.read_bytes()) == expected


@pytest.mark.parametrize("golden, args", GOLDENS)
def test_output_matches_golden(golden, args, capsys, tmp_path, monkeypatch):
    check_golden(golden, args, capsys, tmp_path, monkeypatch)


@pytest.mark.parametrize("golden, args", [g for g in GOLDENS if g[0] != "help.txt"])
def test_a_command_call_skips_the_full_parser(golden, args, capsys, tmp_path, monkeypatch):
    # a call that starts with a command and reads whole is parsed by that
    # command's parser alone, and still reproduces its golden
    def refuse(*_):
        raise AssertionError("the full parser parsed a command call")

    monkeypatch.setattr(cli._parser(), "parse_args", refuse)
    monkeypatch.setattr(cli._parser(), "parse_known_args", refuse)
    check_golden(golden, args, capsys, tmp_path, monkeypatch)


@pytest.mark.parametrize("golden, args", [
    g for g in GOLDENS if g[0].startswith(("sweep_start", "sweep_reward"))])
def test_sweeps_build_no_miner_and_no_scenario_per_reward(golden, args, capsys, tmp_path,
                                                          monkeypatch):
    # the roster is ids and powers: a sweep reads no Miner, and checks each
    # swept reward without building a Scenario for it
    def refuse(*_, **__):
        raise AssertionError("a sweep built a Miner or a Scenario per reward")

    monkeypatch.setattr(model, "Miner", refuse)
    monkeypatch.setattr(model.Scenario, "at_reward", refuse)
    check_golden(golden, args, capsys, tmp_path, monkeypatch)


@pytest.mark.parametrize("missing", [False, True])
def test_an_out_that_cannot_be_written_is_a_named_refusal(missing, capsys, tmp_path):
    # an existing directory, or a file in a directory that does not exist
    out = tmp_path / "missing" / "report.csv" if missing else tmp_path
    code, _, err = answer(["sweep-start", "--pools", TABLE2, "--strategy", "bs", "--states", "0",
                           "--out", str(out)], capsys)
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "CliError"
    assert "--out" in error["message"] and repr(str(out)) in error["message"]


@st.composite
def shuffled_rosters(draw):
    """A roster's pool text in roster-building order, the same lines
    shuffled with comments and blank lines among them, and a start state."""
    n = draw(st.integers(2, 12))
    weights = draw(st.lists(st.sampled_from([1.0, 3.0]) | st.floats(0.01, 10.0),
                            min_size=n, max_size=n))
    mu = draw(st.floats(0.05, 0.45))
    total = sum(weights) / (1.0 - mu)
    lines = [f"M{k} {w / total!r}" for k, w in enumerate(weights)] + [f"A {mu!r} attacker"]
    shuffled = draw(st.permutations(lines))
    for extra in draw(st.lists(st.sampled_from(["# a comment", "", "   "]), min_size=1,
                               max_size=3)):
        shuffled.insert(draw(st.integers(0, len(shuffled))), extra)
    return "\n".join(lines) + "\n", "\n".join(shuffled) + "\n", draw(st.integers(0, 6))


@settings(max_examples=25, deadline=None)
@given(shuffled_rosters())
def test_line_order_moves_neither_the_roster_nor_a_report(case):
    # the powers' total is correctly rounded, so it does not depend on the
    # order of the lines, and neither does anything built from it
    text, shuffled, start = case
    a, b = model.load_pool_distribution(text), model.load_pool_distribution(shuffled)
    assert a.ids == b.ids and a.powers.tobytes() == b.powers.tobytes()
    assert (a.attacker_power.hex(), a.lam.hex()) == (b.attacker_power.hex(), b.lam.hex())
    with tempfile.TemporaryDirectory() as work:
        reports = []
        for name, body in (("file", text), ("shuffled", shuffled)):
            pools = Path(work) / f"{name}.pools"
            pools.write_text(body)
            reports.append([json_report(pools, strategy, start)
                            for strategy in ("bs", "bff", "crb1", "crb2")])
    assert reports[0] == reports[1]


def json_report(pools, strategy, start):
    """What ``analyze --format json`` prints, the JSON report alone."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", "--pools", str(pools), "--strategy", strategy,
                     "--start-state", str(start), "--format", "json"]) == 0
    return out.getvalue()


@pytest.mark.parametrize("argv", [
    *[args for _, args in GOLDENS],
    [], ["-h"], ["--help"], ["foo"], ["-h", "sweep-start"], ["sweep-start", "--help"],
    ["sweep-start", "--pools", TABLE2, "--states", "0"],  # no --strategy
    ["analyze", "--pools", TABLE2, "--strategy", "bs", "--confirmations", "x"],
    ["sweep-start", "--pools", TABLE2, "--strategy", "bs", "--states", "0", "--trials", "0"],
    ["analyze", "--pools", TABLE2, "--strategy", "bs", "stray"],
    ["analyze", "--pool", TABLE2, "--strategy", "bs"],  # no abbreviations
    ["--"], ["analyze", "--", "--pools", TABLE2, "--strategy", "bs"],
    ["analyze", "--pools", TABLE2, "--strategy", "bs", "--"],
    ["analyze", "--pools", TABLE2, "--strategy", "all"],  # a refusal of _refuse
])
def test_main_answers_as_the_full_parser(argv, capsys, monkeypatch):
    # the same exit code, stdout and stderr as parsing every call with the
    # full parser, and for a call it parses the same namespace
    monkeypatch.setenv("COLUMNS", "80")
    got = answer(argv, capsys)
    try:
        namespace = cli._parser().parse_args(argv)
    except SystemExit:
        namespace = None
    capsys.readouterr()
    if namespace is not None:
        assert cli._parse(argv) == namespace
    monkeypatch.setattr(cli, "_parse", cli._parser().parse_args)
    assert answer(argv, capsys) == got


def test_a_target_a_hair_below_the_whole_main_chain_reports_at_depth(capsys, tmp_path):
    # its fork odds overflow a float from state 61 on; the threshold there is
    # the formula's value, not an OverflowError traceback
    pools = tmp_path / "near.pools"
    pools.write_text("A 0.3 attacker\nM 0.69999\nN 0.00001\n")
    code, _, err = run_cli(["analyze", "--pools", str(pools), "--target", "M",
                            "--strategy", "bs", "--confirmations", "70",
                            "--start-state", "0"], capsys)
    assert (code, err) == (0, "")


def test_sweeps_keep_repeated_and_unsorted_points(capsys, tmp_path):
    # rows come in ascending order, once per mention of a start or reward,
    # each equal to its row of the golden
    def report(args):
        out_file = tmp_path / "sweep.csv"
        code, _, err = run_cli([*args, "--out", str(out_file)], capsys)
        assert code == 0 and err == ""
        return out_file.read_text().split("\n")

    for strategy in ("bs", "crb1", "crb2"):
        golden = (DATA / f"sweep_start_{strategy}_table2.csv").read_text().split("\n")
        assert report(sweep_start(strategy, "5,1,5,0")) == [golden[k] for k in (0, 1, 2, 6, 6, 8)]
        if strategy != "crb1":
            golden = (DATA / f"sweep_reward_{strategy}_table2_start4.csv").read_text().split("\n")
            assert (report(sweep_reward(strategy, TABLE2, "12.5,3.125,12.5"))
                    == [golden[k] for k in (0, 2, 4, 4, 5)])


def test_format_btc_rendering():
    assert format_btc(0.0) == "0.00"
    assert format_btc(1e-8) == "1e-8"
    assert format_btc(105.014) == "105.01"


@pytest.mark.parametrize("command, extra, unread", [
    ("sweep-reward", ["--reward", "-1", "--rewards", "6.25"], "--reward -1"),
    ("sweep-reward", ["--rewards", "6.25", "--trials", "0"], "--trials 0"),
    ("sweep-start", ["--states", "0", "--start-state", "9"], "--start-state 9"),
    ("sweep-start", ["--states", "0", "--trials", "0"], "--trials 0"),
    ("analyze", ["--trials", "0"], "--trials 0"),
])
def test_commands_refuse_options_they_do_not_read(command, extra, unread, capsys):
    # each command declares only the options it reads, and takes no
    # abbreviation (--reward is not read as --rewards)
    with pytest.raises(SystemExit) as exc:
        main([command, "--pools", TABLE2, "--strategy", "bs", *extra])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {unread}" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["analyze", "--strategy", "gvc", "--objective", "ac", "--seed", "-1"],
     "--seed must be nonnegative, got -1"),
    (["validate", "--strategy", "bs", "--seed", "-1"], "--seed must be nonnegative, got -1"),
    (["validate", "--strategy", "gvc", "--objective", "ac", "--trials", "0"],
     "--trials must be at least 1, got 0"),
    (["sweep-start", "--strategy", "bs", "--states", "a,1"],
     "--states takes comma-separated ints, got 'a,1'"),
    (["sweep-reward", "--strategy", "bs", "--rewards", "x"],
     "--rewards takes comma-separated floats, got 'x'"),
    (["sweep-reward", "--strategy", "bs", "--rewards", "6.25,inf"],
     "--rewards must be positive and finite, got '6.25,inf'"),
    (["sweep-start", "--strategy", "gvc", "--objective", "ac", "--states", "0,1,9"],
     "--states must lie in [0, 6] (--confirmations), got 9"),
    (["sweep-start", "--strategy", "bs", "--states=0,-1"],
     "--states must lie in [0, 6] (--confirmations), got -1"),
    (["sweep-start", "--strategy", "all", "--confirmations", "2", "--states", "2,3"],
     "--states must lie in [0, 2] (--confirmations), got 3"),
    (["analyze", "--strategy", "bs", "--start-state", "-1"],
     "--start-state must lie in [0, 6] (--confirmations), got -1"),
    (["sweep-reward", "--strategy", "crb2", "--rewards", "6.25", "--start-state", "-1"],
     "--start-state must lie in [0, 6] (--confirmations), got -1"),
    (["validate", "--strategy", "bff", "--confirmations", "3", "--start-state", "-1"],
     "--start-state must lie in [0, 3] (--confirmations), got -1"),
])
def test_refusals_name_the_option_before_any_work(args, message, capsys, monkeypatch):
    def load(*_):
        raise AssertionError("the command loaded its scenario before refusing")

    monkeypatch.setattr(cli, "_load_scenario", load)
    code, out, err = run_cli([*args[:1], "--pools", TABLE2, *args[1:]], capsys)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": {"type": "CliError", "message": message}}


@pytest.mark.parametrize("args, option", [
    # table2's smallest miner: overtake odds that underflow to 0 (C = 600,
    # a ZeroDivisionError before) and subnormal ones, an infinite threshold
    # (C = 580, refused only after the solve before, naming no option)
    (["--strategy", "bff", "--confirmations", "600"], "--confirmations"),
    (["--strategy", "bff", "--confirmations", "580"], "--confirmations"),
    # thresholds that overflow (bs, refused late before) or a grid step
    # count that does (gvc, an OverflowError before)
    (["--strategy", "bs", "--reward", "1e307"], "--reward"),
    (["--strategy", "gvc", "--objective", "ac", "--reward", "1e307"], "--reward"),
])
def test_an_accepted_input_ends_in_a_named_refusal(args, option, capsys):
    code, out, err = run_cli(["analyze", "--pools", TABLE2, *args], capsys)
    assert code == 2 and out == ""
    [line] = err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "StrategyError" and option in error["message"]


@pytest.mark.parametrize("strategy", [["bs"], ["bff"], ["crb1"], ["crb2"],
                                      ["gvc", "--objective", "ac"],
                                      ["gvc", "--objective", "rac"]])
@pytest.mark.parametrize("extra", [["--confirmations", "1"], ["--reward", "1e-300"]])
def test_a_one_block_race_and_a_tiny_reward_still_report(strategy, extra, capsys):
    code, out, err = run_cli(["analyze", "--pools", TABLE2, "--strategy", *strategy, *extra],
                             capsys)
    assert code == 0 and err == "" and "strategy" in out
