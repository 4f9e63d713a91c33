"""Command-line interface.

All results go to stdout as JSON; diagnostics go to stderr.  Exit codes:
0 success / all checks passed, 1 a verification check failed, 2 usage or
domain error.
"""
# Each call answers one question about one layer, so the module imports
# only what parsing needs; a handler imports its layer when it runs, and
# `--suite` spells out the suite names rather than read them from `verify`,
# which loads every layer.
from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import DegenerateInput, ModuliError
from .exact import rat_from_str, to_json


def _load(cls, path: str):
    """A PQState or QuasiPar read from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise DegenerateInput(f"{path}: JSON nested too deeply") from None
    return cls.from_json_dict(data)


def _state(path: str):
    from .connection import PQState
    return _load(PQState, path)


def parse_eps_list(text: str):
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 4:
        raise DegenerateInput(f"four comma-separated rationals required, got {len(parts)}")
    return tuple(rat_from_str(p) for p in parts)


def _weights(eps: str, mu):
    from .stability import Weights
    eps = parse_eps_list(eps)
    return Weights(mu=parse_eps_list(mu), eps=eps) if mu else Weights.of_eps(eps)


# ---------------------------------------------------------------------------
# Handlers: each imports its layer and returns its payload as exact values
# for `to_json`
# ---------------------------------------------------------------------------

def connection_build(state):
    from .connection import build_connection
    s = _state(state)
    conn = build_connection(s)
    q_found, p_found = conn.apparent_singularity_base(), conn.p_invariant()
    report = {
        "trace_zero": all(m.trace() == 0 for m in conn.finite_residues()),
        "det_matches": [m.det() == -kv * kv / 4
                        for m, kv in zip(conn.finite_residues(), s.kappa.finite)],
        "apparent_singularity": q_found,
        "p_recovered": p_found,
        "a4_is_infinity_residue": conn.a4 == conn.infinity_residue(),
    }
    ok = (report["trace_zero"] and all(report["det_matches"]) and q_found == s.q
          and p_found == s.p and report["a4_is_infinity_residue"])
    return {"connection": conn, "invariants": report, "passed": ok}


def connection_eigen(state):
    from fractions import Fraction

    from .connection import eigen_table
    table = eigen_table(_state(state))
    # each eigenvector starts with the int 1, printed as "1/1"
    return {"eigen": [{"pole": i, "r_minus": rm, "v_minus": [Fraction(x) for x in vm],
                       "r_plus": rp, "v_plus": [Fraction(x) for x in vp]}
                      for i, ((rm, vm), (rp, vp)) in enumerate(table, start=1)]}


def parabolic_from_connection(state):
    from . import parabolic
    return parabolic.parabolic_from_connection(_state(state))


def parabolic_phi(parabolic):
    from .parabolic import QuasiPar, phi_map
    return phi_map(_load(QuasiPar, parabolic))


def zone_classify(eps, mu):
    from .stability import classify_zone
    return {"zone": classify_zone(_weights(eps, mu))}


def zone_etpair(eps, mu, i, j):
    from .stability import classify_zone, et_pair
    out = et_pair(_weights(eps, mu), i, j)
    return {"weights": out, "zone": classify_zone(out)}


def zone_branch(eps, mu, i):
    from .stability import stable_subzone_branch
    return {"pole": i, "branch": stable_subzone_branch(_weights(eps, mu), i).value}


def higgs_limit(state, eps, mu):
    from . import higgs
    return higgs.higgs_limit(_state(state), _weights(eps, mu))


def symmetry_apply(word, state):
    from . import backlund as bk
    s = _state(state)  # a bad state file is reported before a bad word
    return bk.apply_word(bk.parse_word(word), s)


def symmetry_relations(state):
    from .backlund import check_relations
    results = check_relations(_state(state))
    return {"relations": [{"relation": nm, "holds": h, **({"witness": w} if w else {})}
                          for nm, h, w in results],
            "passed": all(h for _, h, _ in results)}


def lattice_enumerate(nmax):
    from .lattice import enumerate_transversal, sigma_label
    found = enumerate_transversal(nmax)
    return {"count": len(found),
            "classes": [{"sigma": sigma_label(d), "coefficients": d.coeffs} for d in found]}


def mc_transform(eps, sigma):
    from .mconv import mc_exponents, odd_degree_weights
    from .stability import classify_zone
    out = mc_exponents(odd_degree_weights(parse_eps_list(eps)), sigma=sigma)
    return {"eps": out.eps, "mu": out.mu, "zone": classify_zone(out)}


def mc_interchange(eps):
    from .mconv import odd_degree_weights, zone_interchange_check
    return zone_interchange_check(odd_degree_weights(parse_eps_list(eps)))


def fibration_q(state):
    from .backlund import q_of
    return {"q": q_of(_state(state))}


def fibration_big_q(state):
    from .backlund import big_q_of
    return {"Q": big_q_of(_state(state))}


def fibration_solve(lambda1, lambda2, kappa0):
    from .backlund import transversality_solve
    q, p = transversality_solve(rat_from_str(lambda1), rat_from_str(lambda2),
                                rat_from_str(kappa0))
    return {"q": q, "p": p}


def run_verify(suite, seed, samples, bound):
    from .verify import run_suite
    reports = run_suite(suite, seed=seed, samples=samples, bound=bound)
    for r in reports:
        for c in r.checks:
            sys.stderr.write(f"[{'PASS' if c.passed else 'FAIL'}] {r.suite}: {c.name}\n")
    return {"reports": reports, "passed": all(r.passed for r in reports)}


# ---------------------------------------------------------------------------
# The command table and its parser
# ---------------------------------------------------------------------------

GROUP_HELP = {
    "connection": "normal forms", "parabolic": "quasiparabolic structures",
    "zone": "weight zones", "higgs": "scaling limits", "symmetry": "birational symmetries",
    "lattice": "intersection lattice", "mc": "middle-convolution exponents",
    "fibration": "the two fibration coordinates", "verify": "run the verification suites",
}

# `add_argument` keywords of each option, by name; the suite names are
# verify.SUITES in order (tests/test_cli.py checks it)
ARGUMENTS = {
    **{name: {"required": True}
       for name in ("state", "parabolic", "eps", "lambda1", "lambda2", "kappa0")},
    "mu": {},
    "i": {"type": int, "required": True},
    "j": {"type": int, "required": True},
    "word": {"required": True, "help": "comma list over s0..s4, r12_34, r13_24, r14_23"},
    "nmax": {"type": int, "default": 5},
    "sigma": {"default": "++++"},
    "suite": {"default": "all",
              "choices": ("all", "connection", "backlund", "lattice", "zones", "higgs", "mc")},
    "seed": {"type": int, "default": 1},
    "samples": {"type": int, "default": 50},
    "bound": {"type": int, "default": 64},
}

# (group, command) -> (handler, the names of the options it takes); the
# command None makes the group itself the command
COMMANDS = {
    ("connection", "build"): (connection_build, ("state",)),
    ("connection", "eigen"): (connection_eigen, ("state",)),
    ("parabolic", "from-connection"): (parabolic_from_connection, ("state",)),
    ("parabolic", "phi"): (parabolic_phi, ("parabolic",)),
    ("zone", "classify"): (zone_classify, ("eps", "mu")),
    ("zone", "etpair"): (zone_etpair, ("eps", "mu", "i", "j")),
    ("zone", "branch"): (zone_branch, ("eps", "mu", "i")),
    ("higgs", "limit"): (higgs_limit, ("state", "eps", "mu")),
    ("symmetry", "apply"): (symmetry_apply, ("word", "state")),
    ("symmetry", "relations"): (symmetry_relations, ("state",)),
    ("lattice", "enumerate"): (lattice_enumerate, ("nmax",)),
    ("lattice", "check"): (lambda seed, samples, bound: run_verify("lattice", seed, samples, bound),
                           ("seed", "samples", "bound")),
    ("mc", "transform"): (mc_transform, ("eps", "sigma")),
    ("mc", "interchange"): (mc_interchange, ("eps",)),
    ("fibration", "q"): (fibration_q, ("state",)),
    ("fibration", "Q"): (fibration_big_q, ("state",)),
    ("fibration", "solve"): (fibration_solve, ("lambda1", "lambda2", "kappa0")),
    ("verify", None): (run_verify, ("suite", "seed", "samples", "bound")),
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads "-1/4" and "-1/2,0,0,0" as option
    values, as it reads "-3": argparse takes an argument for an option
    unless it looks like a negative number, and its own test for that
    knows only integers and decimals.  Subcommand parsers share the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="pvi", description=__doc__)
    groups = ap.add_subparsers(dest="command", required=True)
    commands = {}
    for (group, command), (fn, names) in COMMANDS.items():
        if command is None:
            p = groups.add_parser(group, help=GROUP_HELP[group])
        else:
            if group not in commands:
                commands[group] = groups.add_parser(group, help=GROUP_HELP[group]).add_subparsers(
                    dest="sub", required=True)
            p = commands[group].add_parser(command)
        for name in names:
            p.add_argument(f"--{name}", **ARGUMENTS[name])
        p.set_defaults(fn=fn, names=names)
    return ap


def main(argv=None) -> int:
    """Run one command: its payload goes to stdout as JSON, and the exit
    code is 1 exactly when the payload says "passed": false."""
    if hasattr(sys, "set_int_max_str_digits"):  # 3.11+ caps int <-> str at 4,300 digits
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        out = to_json(args.fn(**{name: getattr(args, name) for name in args.names}))
    except ModuliError as exc:
        sys.stderr.write(f"error: {exc.__class__.__name__}: {exc}\n")
        return 2
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 2
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 1 if isinstance(out, dict) and out.get("passed") is False else 0


if __name__ == "__main__":
    sys.exit(main())
