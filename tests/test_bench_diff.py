"""scripts/bench_diff.py on two synthetic BENCH files, judged against the
bounds of the repository's BENCHMARK.json."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_diff.py"
spec = importlib.util.spec_from_file_location("bench_diff", SCRIPT)
bench_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_diff)


def bench_file(path, medians):
    """A BENCH file whose summary has the given change medians (the parent
    side is deliberately different, so reading it would show)."""
    summary = [{"workload": w, "seed": s, "metric": m, "pairs": 3, "change_better_in": 0,
                "parent": {"median": -1.0, "q1": -1.0, "q3": -1.0},
                "change": {"median": v, "q1": v, "q3": v}, "relative": 0.0}
               for (w, s, m), v in medians.items()]
    path.write_text(json.dumps({"summary": summary}))
    return str(path)


OLD = {("verify-all", 1, "op_ref.p50"): 100.0,
       ("verify-all", 1, "setup_s"): 0.20,
       ("verify-all", 1, "peak_rss_mb"): 20.0,
       ("verify-all", 1, "success_ratio"): 1.0,
       ("cli-cold", 12, "op_ref.p50"): 50.0}


def test_flags_only_moves_past_the_bound(tmp_path, capsys):
    new = dict(OLD)
    new[("verify-all", 1, "op_ref.p50")] = 130.0     # +30%, bound 25%: worse
    new[("verify-all", 1, "setup_s")] = 0.10         # better
    new[("verify-all", 1, "peak_rss_mb")] = 21.0     # +5%, bound 10%: fine
    new[("verify-all", 1, "success_ratio")] = 0.99   # -1% of a higher-is-better metric, bound 0.1%
    del new[("cli-cold", 12, "op_ref.p50")]
    new[("orbit-tall", 1, "fraction.ops")] = 9.0     # not an end-to-end metric: ignored
    code = bench_diff.main([bench_file(tmp_path / "old.json", OLD),
                            bench_file(tmp_path / "new.json", new)])
    out = capsys.readouterr().out
    assert code == 1
    worse = {line.split()[2] for line in out.splitlines() if line.endswith("WORSE")}
    assert worse == {"op_ref.p50", "success_ratio"}
    assert "missing" in next(line for line in out.splitlines() if line.startswith("cli-cold"))
    assert "fraction.ops" not in out
    assert out.splitlines()[-1] == "2 of 5 metrics worse than their bound"


def test_unchanged_medians_pass(tmp_path, capsys):
    path = bench_file(tmp_path / "same.json", OLD)
    assert bench_diff.main([path, path]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0 of 5 metrics worse than their bound"


@pytest.mark.parametrize("old, new, expected", [(0, 0, 0.0), (2.0, 3.0, 0.5), (-2.0, -1.0, 0.5)])
def test_relative_move(old, new, expected):
    assert bench_diff.relative(old, new) == expected


def test_wrong_argument_count_is_a_usage_error(capsys):
    assert bench_diff.main(["only-one.json"]) == 2
    assert "usage" in capsys.readouterr().err
