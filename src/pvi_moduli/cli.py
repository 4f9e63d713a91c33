"""Command-line interface.

All results go to stdout as JSON; diagnostics go to stderr.  Exit codes:
0 success / all checks passed, 1 a verification check failed, 2 usage or
domain error.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import backlund as bk
from .connection import PQState, build_connection, eigen_table
from .errors import DegenerateInput, ModuliError
from .exact import rat_from_str, rat_to_str, proj_to_str
from .higgs import higgs_limit
from .lattice import enumerate_transversal, sigma_label
from .mconv import ExponentData, mc_exponents, parse_eps_list, zone_interchange_check
from .parabolic import QuasiPar, parabolic_from_connection, phi_map
from .stability import Weights, classify_zone, et_pair, stable_subzone_branch
from .verify import SUITES, run_suite


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _load(cls, path: str):
    """A PQState or QuasiPar read from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise DegenerateInput(f"{path}: JSON nested too deeply") from None
    return cls.from_json_dict(data)


def _weights_from_args(args) -> Weights:
    eps = parse_eps_list(args.eps)
    return Weights(mu=parse_eps_list(args.mu), eps=eps) if args.mu else Weights.of_eps(eps)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_connection_build(args) -> int:
    s = _load(PQState, args.state)
    conn = build_connection(s)
    k = s.kappa
    q_found, p_found = conn.apparent_singularity_base(), conn.p_invariant()
    report = {
        "trace_zero": all(m.trace() == 0 for m in conn.finite_residues()),
        "det_matches": [m.det() == -kv * kv / 4
                        for m, kv in zip(conn.finite_residues(), k.finite)],
        "apparent_singularity": proj_to_str(q_found),
        "p_recovered": rat_to_str(p_found),
        "a4_is_infinity_residue": conn.a4 == conn.infinity_residue(),
    }
    ok = (report["trace_zero"] and all(report["det_matches"]) and q_found == s.q
          and p_found == s.p and report["a4_is_infinity_residue"])
    _emit({"connection": conn.to_json_dict(), "invariants": report, "passed": ok})
    return 0 if ok else 1


def cmd_connection_eigen(args) -> int:
    s = _load(PQState, args.state)
    table = eigen_table(s)
    out = []
    for i, ((rm, vm), (rp, vp)) in enumerate(table, start=1):
        out.append({"pole": i,
                    "r_minus": rat_to_str(rm), "v_minus": [rat_to_str(x) for x in vm],
                    "r_plus": rat_to_str(rp), "v_plus": [rat_to_str(x) for x in vp]})
    _emit({"eigen": out})
    return 0


def cmd_parabolic_from_connection(args) -> int:
    s = _load(PQState, args.state)
    qp = parabolic_from_connection(s)
    _emit(qp.to_json_dict())
    return 0


def cmd_parabolic_phi(args) -> int:
    qp = _load(QuasiPar, args.parabolic)
    _emit(phi_map(qp).to_json_dict())
    return 0


def cmd_zone_classify(args) -> int:
    w = _weights_from_args(args)
    _emit({"zone": classify_zone(w)})
    return 0


def cmd_zone_etpair(args) -> int:
    w = _weights_from_args(args)
    out = et_pair(w, args.i, args.j)
    _emit({"weights": out.to_json_dict(), "zone": classify_zone(out)})
    return 0


def cmd_zone_branch(args) -> int:
    w = _weights_from_args(args)
    br = stable_subzone_branch(w, args.i)
    _emit({"pole": args.i, "branch": br.value})
    return 0


def cmd_higgs_limit(args) -> int:
    s = _load(PQState, args.state)
    w = _weights_from_args(args)
    _emit(higgs_limit(s, w).to_json_dict())
    return 0


def cmd_symmetry_apply(args) -> int:
    s = _load(PQState, args.state)
    word = bk.parse_word(args.word)
    out = bk.apply_word(word, s)
    _emit(out.to_json_dict())
    return 0


def cmd_symmetry_relations(args) -> int:
    s = _load(PQState, args.state)
    results = bk.check_relations(s)
    ok = all(h for _, h, _ in results)
    _emit({"relations": [{"relation": nm, "holds": h, **({"witness": w} if w else {})}
                         for nm, h, w in results],
           "passed": ok})
    return 0 if ok else 1


def cmd_lattice_enumerate(args) -> int:
    found = enumerate_transversal(args.nmax)
    _emit({"count": len(found),
           "classes": [{"sigma": sigma_label(d), "coefficients": list(d.coeffs)}
                       for d in found]})
    return 0


def cmd_mc_transform(args) -> int:
    e = ExponentData.of_eps(parse_eps_list(args.eps))
    out = mc_exponents(e, sigma=args.sigma)
    _emit({"eps": [rat_to_str(v) for v in out.eps],
           "mu": [rat_to_str(v) for v in out.mu],
           "zone": out.zone()})
    return 0


def cmd_mc_interchange(args) -> int:
    e = ExponentData.of_eps(parse_eps_list(args.eps))
    _emit(zone_interchange_check(e))
    return 0


def cmd_fibration_q(args) -> int:
    _emit({"q": rat_to_str(bk.q_of(_load(PQState, args.state)))})
    return 0


def cmd_fibration_big_q(args) -> int:
    _emit({"Q": rat_to_str(bk.big_q_of(_load(PQState, args.state)))})
    return 0


def cmd_fibration_solve(args) -> int:
    q, p = bk.transversality_solve(rat_from_str(args.lambda1),
                                   rat_from_str(args.lambda2),
                                   rat_from_str(args.kappa0))
    _emit({"q": rat_to_str(q), "p": rat_to_str(p)})
    return 0


def cmd_verify(args) -> int:
    reports = run_suite(args.suite, seed=args.seed, samples=args.samples, bound=args.bound)
    ok = all(r.passed for r in reports)
    _emit({"reports": [r.to_json_dict() for r in reports], "passed": ok})
    for r in reports:
        for c in r.checks:
            sys.stderr.write(f"[{'PASS' if c.passed else 'FAIL'}] {r.suite}: {c.name}\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pvi", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--samples", type=int, default=50)
        p.add_argument("--bound", type=int, default=64)

    p = sub.add_parser("connection", help="normal forms")
    ps = p.add_subparsers(dest="sub", required=True)
    b = ps.add_parser("build")
    b.add_argument("--state", required=True)
    b.set_defaults(fn=cmd_connection_build)
    b = ps.add_parser("eigen")
    b.add_argument("--state", required=True)
    b.set_defaults(fn=cmd_connection_eigen)

    p = sub.add_parser("parabolic", help="quasiparabolic structures")
    ps = p.add_subparsers(dest="sub", required=True)
    b = ps.add_parser("from-connection")
    b.add_argument("--state", required=True)
    b.set_defaults(fn=cmd_parabolic_from_connection)
    b = ps.add_parser("phi")
    b.add_argument("--parabolic", required=True)
    b.set_defaults(fn=cmd_parabolic_phi)

    p = sub.add_parser("zone", help="weight zones")
    ps = p.add_subparsers(dest="sub", required=True)
    b = ps.add_parser("classify")
    b.add_argument("--eps", required=True)
    b.add_argument("--mu")
    b.set_defaults(fn=cmd_zone_classify)
    b = ps.add_parser("etpair")
    b.add_argument("--eps", required=True)
    b.add_argument("--mu")
    b.add_argument("--i", type=int, required=True)
    b.add_argument("--j", type=int, required=True)
    b.set_defaults(fn=cmd_zone_etpair)
    b = ps.add_parser("branch")
    b.add_argument("--eps", required=True)
    b.add_argument("--mu")
    b.add_argument("--i", type=int, required=True)
    b.set_defaults(fn=cmd_zone_branch)

    p = sub.add_parser("higgs", help="scaling limits")
    ps = p.add_subparsers(dest="sub", required=True)
    b = ps.add_parser("limit")
    b.add_argument("--state", required=True)
    b.add_argument("--eps", required=True)
    b.add_argument("--mu")
    b.set_defaults(fn=cmd_higgs_limit)

    p = sub.add_parser("symmetry", help="birational symmetries")
    ps = p.add_subparsers(dest="sub", required=True)
    b = ps.add_parser("apply")
    b.add_argument("--word", required=True, help="comma list over s0..s4, r12_34, r13_24, r14_23")
    b.add_argument("--state", required=True)
    b.set_defaults(fn=cmd_symmetry_apply)
    b = ps.add_parser("relations")
    b.add_argument("--state", required=True)
    b.set_defaults(fn=cmd_symmetry_relations)

    p = sub.add_parser("lattice", help="intersection lattice")
    ps = p.add_subparsers(dest="sub", required=True)
    b = ps.add_parser("enumerate")
    b.add_argument("--nmax", type=int, default=5)
    b.set_defaults(fn=cmd_lattice_enumerate)
    b = ps.add_parser("check")
    add_common(b)
    b.set_defaults(fn=cmd_verify, suite="lattice")

    p = sub.add_parser("mc", help="middle-convolution exponents")
    ps = p.add_subparsers(dest="sub", required=True)
    b = ps.add_parser("transform")
    b.add_argument("--eps", required=True)
    b.add_argument("--sigma", default="++++")
    b.set_defaults(fn=cmd_mc_transform)
    b = ps.add_parser("interchange")
    b.add_argument("--eps", required=True)
    b.set_defaults(fn=cmd_mc_interchange)

    p = sub.add_parser("fibration", help="the two fibration coordinates")
    ps = p.add_subparsers(dest="sub", required=True)
    b = ps.add_parser("q")
    b.add_argument("--state", required=True)
    b.set_defaults(fn=cmd_fibration_q)
    b = ps.add_parser("Q")
    b.add_argument("--state", required=True)
    b.set_defaults(fn=cmd_fibration_big_q)
    b = ps.add_parser("solve")
    b.add_argument("--lambda1", required=True)
    b.add_argument("--lambda2", required=True)
    b.add_argument("--kappa0", required=True)
    b.set_defaults(fn=cmd_fibration_solve)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", default="all", choices=("all", *SUITES))
    add_common(p)
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ModuliError as exc:
        sys.stderr.write(f"error: {exc.__class__.__name__}: {exc}\n")
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
