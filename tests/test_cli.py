import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pvi_moduli import backlund as bk, verify
from pvi_moduli.cli import ARGUMENTS, COMMANDS, build_parser, main
from pvi_moduli.connection import FourPoleConnection, PQState
from pvi_moduli.exact import to_json
from pvi_moduli.verify import SUITES, run_suite

ROOT = Path(__file__).resolve().parent.parent

STATE = {"t": "2/1", "kappa": ["1/4", "1/8", "1/8", "1/8", "1/8"], "q": "3/1", "p": "5/1"}
QP = {"t": ["0/1", "1/1", "2/1", "inf"], "u": ["-10/1", "-15/1", "-30/1", "1/4"]}


@pytest.fixture
def state_file(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(STATE))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestConnectionCommands:
    def test_build_reports_pass(self, capsys, state_file):
        code, out = run_cli(capsys, "connection", "build", "--state", state_file)
        assert code == 0
        assert out["passed"] is True
        assert out["invariants"]["apparent_singularity"] == "3/1"
        assert out["invariants"]["p_recovered"] == "5/1"
        assert out["connection"]["A1"][0][1] == "-3/2"

    def test_build_rejects_pole(self, capsys, tmp_path):
        bad = dict(STATE, q="2/1")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _ = run_cli(capsys, "connection", "build", "--state", str(path))
        assert code == 2

    def test_malformed_rational(self, capsys, tmp_path):
        bad = dict(STATE, p="1/0")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _ = run_cli(capsys, "connection", "build", "--state", str(path))
        assert code == 2

    @pytest.mark.parametrize("command, payload", [
        (["connection", "build", "--state"], {k: v for k, v in STATE.items() if k != "p"}),
        (["connection", "build", "--state"], [STATE]),
        (["connection", "build", "--state"], dict(STATE, q=3)),
        (["connection", "build", "--state"],
         dict(STATE, kappa={"1/4": 0, "1/8": 1, "3/8": 2, "1/16": 3})),
        (["parabolic", "phi", "--parabolic"], {"t": QP["t"]}),
        (["parabolic", "phi", "--parabolic"], [QP]),
        (["parabolic", "phi", "--parabolic"], dict(QP, u=[3] + QP["u"][1:])),
        (["parabolic", "phi", "--parabolic"], dict(QP, u="1234")),
        (["parabolic", "phi", "--parabolic"], dict(QP, t="0123")),
        (["parabolic", "phi", "--parabolic"], dict(QP, u=dict.fromkeys(QP["u"], 0))),
    ], ids=["state-missing-key", "state-list", "state-number", "state-kappa-object",
            "parabolic-missing-key", "parabolic-list", "parabolic-number",
            "parabolic-u-string", "parabolic-t-string", "parabolic-u-object"])
    def test_malformed_json(self, capsys, tmp_path, command, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(command + [str(path)]) == 2
        assert "DegenerateInput" in capsys.readouterr().err

    def test_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        assert main(["connection", "build", "--state", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: DegenerateInput")

    def test_eigen(self, capsys, state_file):
        code, out = run_cli(capsys, "connection", "eigen", "--state", state_file)
        assert code == 0
        assert out["eigen"][0]["r_minus"] == "1/16"
        assert out["eigen"][3]["v_minus"] == ["1/1", "1/4"]


class TestParabolicCommands:
    def test_from_connection(self, capsys, state_file):
        code, out = run_cli(capsys, "parabolic", "from-connection", "--state", state_file)
        assert code == 0
        assert out == {"t": ["0/1", "1/1", "2/1", "inf"],
                       "u": ["-10/1", "-15/1", "-30/1", "1/4"]}

    def test_phi(self, capsys, tmp_path):
        path = tmp_path / "qp.json"
        path.write_text(json.dumps({"t": ["0/1", "1/1", "2/1", "inf"],
                                    "u": ["-10/1", "-15/1", "-30/1", "1/4"]}))
        code, out = run_cli(capsys, "parabolic", "phi", "--parabolic", str(path))
        assert code == 0
        assert out == {"base": "61/20", "sheet": "generic"}


class TestZoneCommands:
    def test_classify(self, capsys):
        code, out = run_cli(capsys, "zone", "classify", "--eps", "1/10,1/10,1/10,1/10")
        assert code == 0 and out == {"zone": "A"}

    def test_etpair(self, capsys):
        code, out = run_cli(capsys, "zone", "etpair", "--eps", "1/10,1/10,1/10,1/10",
                            "--i", "1", "--j", "2")
        assert code == 0
        assert out["zone"] == "C12"
        assert out["weights"]["eps"] == ["2/5", "2/5", "1/10", "1/10"]

    def test_branch(self, capsys):
        code, out = run_cli(capsys, "zone", "branch", "--eps", "2/5,1/5,1/5,1/5", "--i", "1")
        assert code == 0 and out == {"pole": 1, "branch": "origin_unstable"}

    @pytest.mark.parametrize("argv", [
        ["etpair", "--i", "0", "--j", "2"],
        ["etpair", "--i", "1", "--j", "9"],
        ["branch", "--i", "0"],
        ["branch", "--i", "7"],
    ])
    def test_pole_index_out_of_range(self, capsys, argv):
        eps = "2/5,1/5,1/5,1/5" if argv[0] == "branch" else "1/10,1/10,1/10,1/10"
        assert main(["zone", argv[0], "--eps", eps] + argv[1:]) == 2
        assert "in 1..4, got" in capsys.readouterr().err

    def test_special_weights_error(self, capsys):
        code, _ = run_cli(capsys, "zone", "classify", "--eps", "1/8,1/8,1/8,1/8")
        assert code == 2

    @pytest.mark.parametrize("last", ["1e-10000000", "0.3"])
    def test_decimal_rationals_are_rejected_at_once(self, capsys, last):
        # Fraction() would expand the exponent: 10**10000000 took about 14 s
        start = time.perf_counter()
        code = main(["zone", "classify", "--eps", f"1/4,1/4,1/4,{last}"])
        assert time.perf_counter() - start < 2
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"not a rational: {last!r}" in captured.err

    def test_short_mu_list_names_the_count_not_eps(self, capsys):
        code = main(["zone", "classify", "--eps", "1/8,1/8,1/8,1/8", "--mu", "0,0,0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "four comma-separated rationals required, got 3" in captured.err
        assert "eps" not in captured.err


class TestSignedValues:
    """A signed rational, or a list that starts with one, is an option
    value whether it follows its option as a separate argument or after
    an equals sign."""

    @pytest.mark.parametrize("argv, option, value, code", [
        (["fibration", "solve", "--lambda1", "3/1", "--lambda2", "61/20"], "--kappa0", "-1/4", 0),
        (["fibration", "solve", "--lambda2", "61/20", "--kappa0", "1/4"], "--lambda1", "-3/1", 0),
        (["fibration", "solve", "--lambda1", "3/1", "--lambda2", "61/20"], "--kappa0", "-3", 0),
        (["zone", "classify", "--eps", "1/10,1/10,1/10,1/10"], "--mu", "-1/2,0,0,0", 0),
        (["zone", "etpair", "--eps", "1/10,1/10,1/10,1/10", "--i", "1", "--j", "2"],
         "--mu", "-1/2,1/3,-2/5,0", 0),
        (["zone", "classify", "--eps", "1/10,1/10,1/10,1/10"], "--mu", "-1/2,0,0", 2),
    ], ids=["kappa0", "lambda1", "integer", "mu", "mu-etpair", "short-mu"])
    def test_separate_argument_matches_the_equals_form(self, capsys, argv, option, value, code):
        joined = main(argv + [f"{option}={value}"]), capsys.readouterr().out
        separate = main(argv + [option, value]), capsys.readouterr().out
        assert separate == joined and joined[0] == code and (joined[1] != "") == (code == 0)


class TestHiggsCommand:
    def test_zone_a_limit(self, capsys, state_file):
        code, out = run_cli(capsys, "higgs", "limit", "--state", state_file,
                            "--eps", "1/10,1/12,1/14,1/16")
        assert code == 0
        assert out == {"kind": "graded", "degL": 1, "contact": [], "divisor": ["3/1"]}


class TestSymmetryCommands:
    def test_apply_word(self, capsys, state_file):
        code, out = run_cli(capsys, "symmetry", "apply", "--word", "s0",
                            "--state", state_file)
        assert code == 0
        assert out["q"] == "61/20" and out["p"] == "5/1"
        assert out["kappa"] == ["-1/4", "3/8", "3/8", "3/8", "3/8"]

    def test_relations(self, capsys, state_file):
        code, out = run_cli(capsys, "symmetry", "relations", "--state", state_file)
        assert code == 0 and out["passed"] is True

    def test_unknown_generator_rejected_before_any_step(self, capsys, monkeypatch, state_file):
        # a long valid prefix would take seconds to compute; the bad letter
        # is reported, with its position, before the first step
        steps = []
        real = bk.apply_generator

        def counted(name, s):
            steps.append(name)
            return real(name, s)

        monkeypatch.setattr(bk, "apply_generator", counted)
        word = ",".join(bk.WORD_SHIFT_12 * 80 + ("s9",))
        assert main(["symmetry", "apply", "--word", word, "--state", state_file]) == 2
        err = capsys.readouterr().err
        assert "DegenerateInput" in err and "'s9'" in err and "at step 560" in err
        assert steps == []

    def test_bad_state_reported_before_bad_word(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(STATE, p="1/0")))
        assert main(["symmetry", "apply", "--word", "s9", "--state", str(path)]) == 2
        assert "s9" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["symmetry", "apply", "--word", "s0"], ["symmetry", "relations"],
        ["fibration", "q"], ["fibration", "Q"],
    ])
    def test_infinite_q_rejected(self, capsys, tmp_path, argv):
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(dict(STATE, q="inf")))
        assert main(argv + ["--state", str(path)]) == 2
        assert "DegenerateInput" in capsys.readouterr().err


class TestLatticeCommands:
    def test_enumerate(self, capsys):
        code, out = run_cli(capsys, "lattice", "enumerate", "--nmax", "5")
        assert code == 0
        assert out["count"] == 16
        assert sorted(c["sigma"] for c in out["classes"])[0] == "++++"

    def test_check(self, capsys):
        code, out = run_cli(capsys, "lattice", "check", "--seed", "1", "--samples", "5")
        assert code == 0 and out["passed"] is True

    def test_enumerate_huge_nmax_is_fast(self, capsys):
        start = time.perf_counter()
        code, out = run_cli(capsys, "lattice", "enumerate", "--nmax", "100000000")
        assert time.perf_counter() - start < 2
        assert code == 0 and out["count"] == 16


class TestMcCommands:
    def test_transform(self, capsys):
        code, out = run_cli(capsys, "mc", "transform", "--eps", "1/10,1/10,1/10,1/10",
                            "--sigma", "++++")
        assert code == 0
        assert out["eps"] == ["3/20", "3/20", "3/20", "3/20"]
        assert out["zone"] == "Stable"

    def test_interchange(self, capsys):
        code, out = run_cli(capsys, "mc", "interchange", "--eps", "1/10,1/10,1/10,1/10")
        assert code == 0
        assert out["found_stable"] is True


class TestFibrationCommands:
    def test_q(self, capsys, state_file):
        code, out = run_cli(capsys, "fibration", "q", "--state", state_file)
        assert code == 0 and out == {"q": "3/1"}

    def test_big_q(self, capsys, state_file):
        code, out = run_cli(capsys, "fibration", "Q", "--state", state_file)
        assert code == 0 and out == {"Q": "61/20"}

    def test_solve(self, capsys):
        code, out = run_cli(capsys, "fibration", "solve", "--lambda1", "3/1",
                            "--lambda2", "61/20", "--kappa0", "1/4")
        assert code == 0 and out == {"q": "3/1", "p": "5/1"}

    def test_solve_no_intersection(self, capsys):
        code, _ = run_cli(capsys, "fibration", "solve", "--lambda1", "3/1",
                          "--lambda2", "3/1", "--kappa0", "1/4")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        [], ["q"], ["Q"], ["solve"], ["solve", "--lambda1", "3/1", "--lambda2", "61/20"],
        ["q", "--lambda1", "3/1"],
    ])
    def test_missing_arguments(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["fibration"] + argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestTallRationals:
    """Python 3.11+ caps int <-> str conversion at 4,300 digits by default;
    the CLI reads and prints exact values of any height."""

    def test_tall_state_read_and_printed_unchanged(self, tmp_path):
        q = "1" * 5001 + "/7"
        path = tmp_path / "tall.json"
        path.write_text(json.dumps(dict(STATE, q=q)))
        # a fresh interpreter, so the default digit limit is in force
        proc = subprocess.run([sys.executable, "-m", "pvi_moduli.cli", "fibration", "q",
                               "--state", str(path)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"q": q}

    def test_tall_image_printed_exactly(self, capsys, state_file):
        word = bk.WORD_SHIFT_12 * 40
        code, out = run_cli(capsys, "symmetry", "apply", "--word", ",".join(word),
                            "--state", state_file)
        assert code == 0
        assert len(out["q"]) > 6000
        assert out == to_json(bk.apply_word(word, PQState.from_json_dict(STATE)))


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "lattice")
        assert code == 0 and out["passed"] is True

    @pytest.mark.parametrize("samples", [0, -3])
    def test_samples_below_one_rejected(self, capsys, samples):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            run_suite("all", samples=samples)
        assert main(["verify", "--suite", "lattice", "--samples", str(samples)]) == 2
        assert "samples must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["verify", "--suite", "lattice"], ["lattice", "check"]])
    def test_bound_below_two_rejected(self, capsys, argv):
        assert main(argv + ["--bound", "1"]) == 2
        assert "bound must be at least 2" in capsys.readouterr().err

    def test_exhausted_sampler_is_an_input_error(self):
        # with denominators in {2} no kappa is generic, so the sampler gives up
        proc = subprocess.run([sys.executable, "-m", "pvi_moduli.cli", "verify", "--suite", "all",
                               "--samples", "3", "--bound", "2"],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "SamplerExhausted" in proc.stderr and "bound 2" in proc.stderr

    @pytest.mark.parametrize("seed", [1, 12])
    def test_output_pinned_to_recorded_digest(self, capsys, seed):
        expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())["verify"]
        code = main(["verify", "--suite", "all", "--seed", str(seed),
                     "--samples", "50", "--bound", "64"])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected[str(seed)]

    def test_deterministic_reports(self, capsys):
        for suite in ("connection", "backlund"):
            code1, out1 = run_cli(capsys, "verify", "--suite", suite,
                                  "--seed", "7", "--samples", "5", "--bound", "12")
            code2, out2 = run_cli(capsys, "verify", "--suite", suite,
                                  "--seed", "7", "--samples", "5", "--bound", "12")
            assert code1 == code2 == 0
            assert out1 == out2

    def test_entry_point_runs(self):
        proc = subprocess.run([sys.executable, "-m", "pvi_moduli.cli",
                               "zone", "classify", "--eps", "2/5,2/5,2/5,2/5"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"zone": "B"}


class TestFailedCheckExit:
    """Exit 1 means exactly that the payload says "passed": false."""

    def test_verify(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "find_destabilizer", lambda qp, w: None)
        code = main(["verify", "--suite", "zones", "--samples", "8", "--bound", "16"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["passed"] is False
        assert "[FAIL] zones: zone A: destabilizer of the predicted type" in captured.err

    def test_connection_build(self, capsys, monkeypatch, state_file):
        monkeypatch.setattr(FourPoleConnection, "p_invariant", lambda conn: Fraction(7))
        code, out = run_cli(capsys, "connection", "build", "--state", state_file)
        assert code == 1
        assert out["passed"] is False and out["invariants"]["p_recovered"] == "7/1"

    def test_symmetry_relations(self, capsys, monkeypatch, state_file):
        monkeypatch.setattr(bk, "RELATION_WORDS", bk.RELATION_WORDS + [("s0 = s1", ("s0",), ("s1",))])
        code, out = run_cli(capsys, "symmetry", "relations", "--state", state_file)
        assert code == 1 and out["passed"] is False
        failed = [r for r in out["relations"] if not r["holds"]]
        assert [r["relation"] for r in failed] == ["s0 = s1"]
        assert failed[0]["witness"]["lhs"]["q"] == "61/20"


def readme_cli_lines():
    """The `pvi ...` lines of the code blocks in README's CLI section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```")[1::2]
    return [line.split("#", 1)[0].split() for block in blocks
            for line in block.splitlines() if line.startswith("pvi ")]


def command_of(line):
    """The (group, command) key of COMMANDS that a `pvi ...` line parses to."""
    args = build_parser().parse_args(line[1:])
    return args.command, getattr(args, "sub", None)


class TestReadme:
    @pytest.mark.parametrize("line", readme_cli_lines(), ids=" ".join)
    def test_documented_command_parses(self, line):
        assert command_of(line) in COMMANDS

    def test_every_command_is_documented(self):
        assert {command_of(line) for line in readme_cli_lines()} == set(COMMANDS)


# ---------------------------------------------------------------------------
# What a cold call loads: each handler imports only the layer it runs
# ---------------------------------------------------------------------------

def test_suite_choices_are_the_verify_suites():
    # spelled out in ARGUMENTS, so that building the parser loads no layer
    assert ARGUMENTS["suite"]["choices"] == ("all", *verify.SUITES)


# valid options of every command, with "{state}" and "{parabolic}" for the files
VALID_OPTIONS = {
    ("connection", "build"): ["--state", "{state}"],
    ("connection", "eigen"): ["--state", "{state}"],
    ("parabolic", "from-connection"): ["--state", "{state}"],
    ("parabolic", "phi"): ["--parabolic", "{parabolic}"],
    ("zone", "classify"): ["--eps", "1/10,1/10,1/10,1/10"],
    ("zone", "etpair"): ["--eps", "1/10,1/10,1/10,1/10", "--i", "1", "--j", "2"],
    ("zone", "branch"): ["--eps", "2/5,1/5,1/5,1/5", "--i", "1"],
    ("higgs", "limit"): ["--state", "{state}", "--eps", "1/10,1/12,1/14,1/16"],
    ("symmetry", "apply"): ["--word", "s0,s1,r12_34", "--state", "{state}"],
    ("symmetry", "relations"): ["--state", "{state}"],
    ("lattice", "enumerate"): ["--nmax", "3"],
    ("lattice", "check"): ["--samples", "2", "--bound", "8"],
    ("mc", "transform"): ["--eps", "1/10,1/10,1/10,1/10", "--sigma", "+-++"],
    ("mc", "interchange"): ["--eps", "1/10,1/10,1/10,1/10"],
    ("fibration", "q"): ["--state", "{state}"],
    ("fibration", "Q"): ["--state", "{state}"],
    ("fibration", "solve"): ["--lambda1", "3/1", "--lambda2", "61/20", "--kappa0", "1/4"],
    ("verify", None): ["--suite", "lattice", "--samples", "2", "--bound", "8"],
}

# the pvi_moduli modules loaded once each command has run in a fresh interpreter
CONNECTION = {"cli", "errors", "exact", "connection"}
EPS = {"cli", "errors", "exact", "stability"}  # the eps layer loads no geometry
ZONES = CONNECTION | EPS | {"parabolic"}
EVERY = ZONES | {"backlund", "higgs", "lattice", "mconv", "sampling", "verify"}
LOADS = {
    ("connection", "build"): CONNECTION,
    ("connection", "eigen"): CONNECTION,
    ("parabolic", "from-connection"): CONNECTION | {"parabolic"},
    ("parabolic", "phi"): CONNECTION | {"parabolic"},
    ("zone", "classify"): EPS,
    ("zone", "etpair"): EPS,
    ("zone", "branch"): EPS,
    ("higgs", "limit"): ZONES | {"higgs"},
    ("symmetry", "apply"): CONNECTION | {"backlund"},
    ("symmetry", "relations"): CONNECTION | {"backlund"},
    ("lattice", "enumerate"): {"cli", "errors", "exact", "lattice"},
    ("lattice", "check"): EVERY,
    ("mc", "transform"): EPS | {"mconv"},
    ("mc", "interchange"): EPS | {"mconv"},
    ("fibration", "q"): CONNECTION | {"backlund"},
    ("fibration", "Q"): CONNECTION | {"backlund"},
    ("fibration", "solve"): CONNECTION | {"backlund"},
    ("verify", None): EVERY,
}

REPORT_LOADED = """
import json, sys
from pvi_moduli.cli import main
code = main(sys.argv[1:])
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("pvi_moduli."))
sys.stderr.write("\\n" + json.dumps([code, loaded]))
"""


def test_load_table_covers_every_command():
    assert set(VALID_OPTIONS) == set(LOADS) == set(COMMANDS)


@pytest.mark.parametrize("group, command", list(COMMANDS), ids=lambda v: v or "-")
def test_command_loads_only_its_layer(tmp_path, group, command):
    files = {"state": tmp_path / "state.json", "parabolic": tmp_path / "qp.json"}
    files["state"].write_text(json.dumps(STATE))
    files["parabolic"].write_text(json.dumps(QP))
    argv = [group] + ([command] if command else [])
    argv += [v.format(**files) for v in VALID_OPTIONS[(group, command)]]
    proc = subprocess.run([sys.executable, "-c", REPORT_LOADED, *argv],
                          capture_output=True, text=True)
    code, loaded = json.loads(proc.stderr.rsplit("\n", 1)[-1])
    assert code == 0, proc.stderr
    assert set(loaded) == LOADS[(group, command)]


# ---------------------------------------------------------------------------
# Fuzz: any argument list exits 0, 1 or 2 (or argparse's SystemExit(2))
# ---------------------------------------------------------------------------

RATIONALS = ["0", "1/2", "-3/7", "2", "1/10", "1/8", "1/4", "2/5", "61/20",
             "18446744073709551617/3", "inf", "1/0", "x", ""]

BAD_STATES = {
    "q-inf": dict(STATE, q="inf"), "p-zero": dict(STATE, p="0/1"), "t-inf": dict(STATE, t="inf"),
    "t-pole": dict(STATE, t="1/1"), "q-at-t": dict(STATE, q="2/1"), "q-zero": dict(STATE, q="0/1"),
    "big-q-at-pole": dict(STATE, p="-1/12"),
    "k0-zero": dict(STATE, kappa=["0/1", "1/4", "1/4", "1/4", "1/4"]),
    "four-kappa": dict(STATE, kappa=["1/8", "1/8", "1/8", "1/8"]),
    "no-fuchs": dict(STATE, kappa=["1/4"] * 5), "tall": dict(STATE, q="18446744073709551617/3"),
    "missing-key": {k: v for k, v in STATE.items() if k != "q"},
}
BAD_PARABOLICS = {
    "colinear-four": dict(QP, u=["0/1", "1/1", "2/1", "1/1"]),
    "colinear-three": dict(QP, u=["0/1", "1/1", "2/1", "5/1"]),
    "origin": dict(QP, u=["inf", "-15/1", "-30/1", "1/4"]),
    "all-inf": dict(QP, u=["inf"] * 4),
    "inf-pole-moved": dict(QP, t=["0/1", "1/1", "inf", "2/1"]),
    "double-pole": dict(QP, t=["0/1", "0/1", "2/1", "inf"]),
    "three-poles": {"t": QP["t"][:3], "u": QP["u"][:3]},
}


# every command that reads a state file, with valid values for its other options
STATE_COMMANDS = sorted(key for key, (_, names) in COMMANDS.items() if "state" in names)
OTHER_OPTIONS = {"eps": "1/10,1/10,1/10,1/10", "mu": "0,0,0,0", "word": "s0"}


@pytest.mark.parametrize("group, command", STATE_COMMANDS, ids=" ".join)
def test_state_off_the_kappa_relation_is_rejected(capsys, tmp_path, group, command):
    """The state file is where k0 comes in, so it is where 2*k0 + k1 + ... + k4 = 1
    is checked: every --state command exits 2 on a file off that relation."""
    path = tmp_path / "no-fuchs.json"
    path.write_text(json.dumps(BAD_STATES["no-fuchs"]))
    argv = [group, command, "--state", str(path)]
    for name in COMMANDS[(group, command)][1]:
        if name in OTHER_OPTIONS:
            argv += [f"--{name}", OTHER_OPTIONS[name]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "DegenerateInput" in captured.err


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Paths for --state and --parabolic: good files, files on the
    degeneracy loci, malformed JSON, a directory and a missing path."""
    root = tmp_path_factory.mktemp("fuzz")
    payloads = {"state": STATE, "qp": QP, **BAD_STATES, **BAD_PARABOLICS}
    for name, payload in payloads.items():
        (root / f"{name}.json").write_text(json.dumps(payload))
    (root / "broken.json").write_text("{")
    return [str(root / f"{name}.json") for name in (*payloads, "broken")] + [
        str(root), str(root / "missing.json")]


def values(files):
    """A strategy of option values for each option name."""
    in_range = st.sampled_from(["1/10", "1/12", "1/16", "1/5", "2/5", "3/7", "1/8", "1/4", "7/16"])
    eps = st.one_of(st.lists(in_range, min_size=4, max_size=4),
                    st.lists(st.sampled_from(RATIONALS), min_size=3, max_size=5)).map(",".join)
    word = st.lists(st.sampled_from(["s0", "s1", "s2", "s3", "s4", "r12_34", "r13_24",
                                     "r14_23", "t9"]), max_size=4).map(",".join)
    index = st.one_of(st.sampled_from(["1", "2", "3", "4"]), st.sampled_from(["0", "5", "-1", "x"]))
    return {
        "state": st.sampled_from(files), "parabolic": st.sampled_from(files),
        "eps": eps, "mu": eps, "i": index, "j": index, "word": word,
        "nmax": st.sampled_from(["0", "1", "5", "-1", "1000000", "x"]),
        "sigma": st.sampled_from(["++++", "+-+-", "---+", "+++", "++++-", "x"]),
        "lambda1": st.sampled_from(RATIONALS), "lambda2": st.sampled_from(RATIONALS),
        "kappa0": st.sampled_from(RATIONALS),
        "suite": st.sampled_from(["all", *SUITES, "nope"]),
        "seed": st.sampled_from(["1", "0", "-3", "12", "x"]),
        "samples": st.sampled_from(["1", "2", "0", "-1", "x"]),
        "bound": st.sampled_from(["1", "2", "3", "64", "x"]),
    }


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzz_main(fuzz_files, data):
    group, command = data.draw(st.sampled_from(sorted(COMMANDS, key=str)))
    argv = [group] + ([command] if command else [])
    strategies = values(fuzz_files)
    for name in COMMANDS[(group, command)][1]:
        if data.draw(st.integers(0, 9)):  # now and then an option is left out
            value = data.draw(strategies[name])
            argv += [f"--{name}={value}"] if data.draw(st.booleans()) else [f"--{name}", value]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    else:
        payload = json.loads(out.getvalue())
        assert code == (1 if isinstance(payload, dict) and payload.get("passed") is False else 0)
