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
    """A BENCH file whose summary has the given (parent, change) medians."""
    summary = [{"workload": w, "seed": s, "metric": m, "pairs": 3, "change_better_in": 0,
                "parent": {"median": a, "q1": a, "q3": a},
                "change": {"median": b, "q1": b, "q3": b}, "relative": 0.0}
               for (w, s, m), (a, b) in medians.items()]
    path.write_text(json.dumps({"summary": summary}))
    return str(path)


OLD = {("verify-all", 1, "op_ref.p50"): (100.0, 100.0),
       ("verify-all", 1, "setup_s"): (0.20, 0.20),
       ("verify-all", 1, "peak_rss_mb"): (20.0, 20.0),
       ("verify-all", 1, "success_ratio"): (1.0, 1.0),
       ("cli-cold", 12, "op_ref.p50"): (50.0, 50.0)}


def worse_lines(out):
    return {line.split()[2]: line.split("WORSE in ")[1]
            for line in out.splitlines() if "WORSE" in line}


def test_flags_only_moves_past_the_bound(tmp_path, capsys):
    new = dict(OLD)
    new[("verify-all", 1, "op_ref.p50")] = (100.0, 130.0)    # +30%, bound 25%: worse
    new[("verify-all", 1, "setup_s")] = (0.20, 0.10)         # better
    new[("verify-all", 1, "peak_rss_mb")] = (20.0, 21.0)     # +5%, bound 10%: fine
    new[("verify-all", 1, "success_ratio")] = (1.0, 0.99)    # -1% of a higher-is-better metric
    del new[("cli-cold", 12, "op_ref.p50")]
    new[("orbit-tall", 1, "fraction.ops")] = (1.0, 9.0)      # not an end-to-end metric: ignored
    code = bench_diff.main([bench_file(tmp_path / "old.json", OLD),
                            bench_file(tmp_path / "new.json", new)])
    out = capsys.readouterr().out
    assert code == 1
    assert worse_lines(out) == {"op_ref.p50": "new", "success_ratio": "new"}
    assert "missing" in next(line for line in out.splitlines() if line.startswith("cli-cold"))
    assert "fraction.ops" not in out
    assert out.splitlines()[-1] == "2 of 8 moves worse than their bound"


def test_each_file_is_judged_by_its_own_move(tmp_path, capsys):
    old = dict(OLD)
    old[("verify-all", 1, "peak_rss_mb")] = (20.0, 23.0)     # +15% in the old file
    new = dict(OLD)
    new[("verify-all", 1, "peak_rss_mb")] = (23.0, 26.0)     # +13% in the new file
    new[("verify-all", 1, "op_ref.p50")] = (100.0, 90.0)     # -10%, chained with 0%
    code = bench_diff.main([bench_file(tmp_path / "old.json", old),
                            bench_file(tmp_path / "new.json", new)])
    out = capsys.readouterr().out
    assert code == 1
    assert worse_lines(out) == {"peak_rss_mb": "old and new"}
    assert "+30.00%" in next(line for line in out.splitlines() if "peak_rss_mb" in line)
    assert out.splitlines()[-1] == "2 of 10 moves worse than their bound"


def test_host_drift_on_both_sides_is_not_flagged(tmp_path, capsys):
    # the new file ran on a host 50% slower and heavier: its parent and
    # change medians drift together, so its own moves are 0
    new = {key: (1.5 * a, 1.5 * b) for key, (a, b) in OLD.items()}
    code = bench_diff.main([bench_file(tmp_path / "old.json", OLD),
                            bench_file(tmp_path / "new.json", new)])
    out = capsys.readouterr().out
    assert code == 0 and "WORSE" not in out
    assert out.splitlines()[-1] == "0 of 10 moves worse than their bound"


def test_unchanged_medians_pass(tmp_path, capsys):
    path = bench_file(tmp_path / "same.json", OLD)
    assert bench_diff.main([path, path]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0 of 10 moves worse than their bound"


@pytest.mark.parametrize("old, new, expected", [(0, 0, 0.0), (2.0, 3.0, 0.5), (-2.0, -1.0, 0.5)])
def test_relative_move(old, new, expected):
    assert bench_diff.relative(old, new) == expected


def test_wrong_argument_count_is_a_usage_error(capsys):
    assert bench_diff.main(["only-one.json"]) == 2
    assert "usage" in capsys.readouterr().err
