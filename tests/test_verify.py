import ast
import functools
import json
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from pvi_moduli import backlund as bk
from pvi_moduli import verify
from pvi_moduli.errors import DegenerateInput, SamplerExhausted
from pvi_moduli.exact import INF, Mat2
from pvi_moduli.parabolic import QuasiPar
from pvi_moduli.stability import Weights, find_destabilizer


class TestReportCheck:
    def test_one_line_per_name_in_first_seen_order(self):
        rep = verify.Report(suite="demo", seed=1, samples=2, bound=2)
        rep.check("a", True, {"v": F(1)})
        rep.check("b", False, {"v": F(1, 2)})
        rep.check("a", False, {"v": INF})
        rep.check("a", False, {"v": F(3)})
        rep.check("b", True)
        assert [c.name for c in rep.checks] == ["a", "b"]
        assert not rep.passed
        assert [c.to_json_dict() for c in rep.checks] == [
            {"name": "a", "passed": False, "witness": {"v": "inf"}},
            {"name": "b", "passed": False, "witness": {"v": "1/2"}},
        ]

    def test_passing_check_carries_no_witness(self):
        rep = verify.Report(suite="demo", seed=1, samples=1, bound=2)
        rep.check("a", True, {"v": F(1)})
        assert rep.passed and rep.checks[0].to_json_dict() == {"name": "a", "passed": True}

    def test_witness_values_serialized_once(self):
        rep = verify.Report(suite="demo", seed=1, samples=1, bound=2)
        weights = Weights.of_eps((F(1, 10),) * 4)
        rep.check("a", False, {"m": Mat2(1, 0, 0, 1), "seen": {"C12", "B"}, "w": weights,
                               "pair": (F(-1, 3), 2), "none": None})
        assert rep.checks[0].to_json_dict()["witness"] == {
            "m": Mat2(1, 0, 0, 1).to_strs(), "seen": ["B", "C12"], "w": weights.to_json_dict(),
            "pair": ["-1/3", 2], "none": None}


@pytest.mark.parametrize("name", verify.SUITES)
@pytest.mark.parametrize("samples, bound, message", [
    (0, 64, "samples must be at least 1"), (1, 1, "bound must be at least 2")],
    ids=["samples=0", "bound=1"])
def test_suite_called_directly_rejects_its_arguments(name, samples, bound, message):
    # the Fraction budget and the benchmark call SUITES entries, not run_suite
    with pytest.raises(ValueError, match=message):
        verify.SUITES[name](1, samples, bound)


class TestWitnesses:
    def test_zone_check_witness_holds_the_failing_sample(self, monkeypatch):
        monkeypatch.setattr(verify, "find_destabilizer", lambda qp, w: None)
        (rep,) = verify.run_suite("zones", seed=1, samples=8, bound=16)
        failed = {c.name: c.to_json_dict()["witness"] for c in rep.checks if not c.passed}
        witness = failed["zone A: destabilizer of the predicted type on all samples"]
        assert witness["destabilizer"] is None
        w = Weights.from_json_dict(witness["weights"])
        qp = QuasiPar.from_json_dict(witness["parabolic"])
        assert find_destabilizer(qp, w) is not None
        assert "zone A: verdict and maximizer match the brute-force oracle" in failed

    def test_failing_zone_check_serializes_its_destabilizer(self, monkeypatch):
        monkeypatch.setattr(verify, "predicted_destabilizer_degree", lambda zone: 5)
        (rep,) = verify.run_suite("zones", seed=1, samples=8, bound=16)
        failed = {c.name: c.to_json_dict()["witness"] for c in rep.checks if not c.passed}
        witness = failed["zone A: destabilizer of the predicted type on all samples"]
        assert set(witness["destabilizer"]) == {"degree", "coefficients", "contact"}
        json.dumps(rep.to_json_dict())

    def test_failing_mc_check_serializes_its_exponent_data(self, monkeypatch):
        monkeypatch.setattr(verify, "ZONE_STABLE", "no zone")
        (rep,) = verify.run_suite("mc", seed=1, samples=8, bound=16)
        failed = {c.name: c.to_json_dict()["witness"] for c in rep.checks if not c.passed}
        witness = failed["zone A, all-plus: image lies in the stable zone"]
        assert set(witness["eps"]) == set(witness["out"]) == {"mu", "eps"}
        json.dumps(rep.to_json_dict())

    def test_backlund_does_not_hide_a_formula_bug(self, monkeypatch):
        def broken(state):
            raise TypeError("broken formula")

        monkeypatch.setattr(bk, "symplectic_check", broken)
        with pytest.raises(TypeError, match="broken formula"):
            verify.run_suite("backlund", samples=3)

    def test_unlabelled_lattice_class_is_reported_not_raised(self, monkeypatch):
        monkeypatch.setattr(verify, "sigma_label", lambda d: None)
        (rep,) = verify.run_suite("lattice")
        failed = {c.name: c.to_json_dict()["witness"] for c in rep.checks if not c.passed}
        assert failed["every class is C1 + F - sum E_i^sigma"] == {"labels": [None] * 16}
        assert "the 16 sign patterns each occur once" in failed
        assert not rep.passed


def _degenerate_generator(name, state):
    raise DegenerateInput(f"{name} degenerates everywhere")


class TestRejectedSamples:
    @pytest.mark.parametrize("suite, seed, samples, bound, degenerate", [
        ("zones", 3, 3, 3, False),        # a zone-B structure with three colinear directions
        ("higgs", 2, 3, 3, False),        # a dictionary word through a pole
        ("connection", 16, 5, 3, False),  # Q' of a state whose s1 s2 s3 s4 image has p = 0
        ("higgs", 30, 5, 3, False),       # the C23 limit's free zero lands on the pole 0
        ("backlund", 1, 1, 64, True),     # no state survives a generator step
    ])
    def test_degenerate_samples_count_as_rejections(self, monkeypatch, suite, seed, samples,
                                                    bound, degenerate):
        if degenerate:
            monkeypatch.setattr(bk, "apply_generator", _degenerate_generator)
            start = time.perf_counter()
            with pytest.raises(SamplerExhausted):
                verify.run_suite(suite, seed=seed, samples=samples, bound=bound)
            assert time.perf_counter() - start < 5
            return
        (rep,) = verify.run_suite(suite, seed=seed, samples=samples, bound=bound)
        assert rep.passed, [c.name for c in rep.checks if not c.passed]


class TestDeclarations:
    def test_suites_only_draw_and_record(self):
        tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
        suites = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name.startswith("suite_")]
        assert {node.name for node in suites} == {fn.__name__ for fn in verify.SUITES.values()}
        inline = [(node.name, call.lineno) for node in suites for call in ast.walk(node)
                  if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                  and call.func.attr == "check"]
        assert inline == []

    def test_each_check_name_has_one_declaration(self, monkeypatch):
        # every `*_identities`/`*_identity` function, wrapped to note the names it returns
        sources = {}

        def noted(declaration, *args):
            records = declaration(*args)
            for name, _, _ in records:
                sources.setdefault(name, set()).add(declaration.__name__)
            return records

        for attr in dir(verify):
            if attr.endswith(("_identities", "_identity")):
                monkeypatch.setattr(verify, attr, functools.partial(noted, getattr(verify, attr)))
        names = [c.name for rep in verify.run_suite("all", samples=8) for c in rep.checks]
        assert [name for name in names if len(sources.get(name, ())) != 1] == []
