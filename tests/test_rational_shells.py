"""ℚ only in the shells: every place in `src/` that treats numbers as rationals.

A `.numerator` or `.denominator` read, or a call of `Fraction(...)` or
`over_common_denominator(...)`, says "these values are in ℚ".  Each one
sits in a function on the declared list of shells below, grouped by why
it needs ℚ.  Numbers come in through the parsers and constructors and go
out through the serializers.  The sampler draws them, and the
integrality predicates ask a question only a rational number answers.
The kernel shells clear denominators around a kernel and build its
`Fraction` results.  `sampling`, `cli` and `verify` count as whole-module
shells.  Module-level code is listed as `<module>`.

The ring-generic kernels those shells wrap take coordinates in any
commutative ring, and `tests/test_certificates.py` runs them on
polynomial-ring symbols; `CORES` lists them with the other code that must
stay off the list.  `parabolic.direction_point` is the one shell
that turns a pole or a direction into an integer point; the contact,
conic and Wronskian cores, and `_conic_minors`, which feeds them those
points, never read a denominator.  Nor do the zone score
`stability._score`, which the zone classifier, the branch test and the
destabilizer scores share, and the convolution's integer `_convolve`.
Those callers read the integer eps that `Weights.cleared` makes once per
value, so they are off the list.  A
new read outside the list fails
`test_every_rational_read_sits_in_a_declared_shell`, and a shell with no
read left fails `test_every_declared_shell_still_reads_a_rational`.
Stdlib only.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pvi_moduli"

WHOLE_MODULE_SHELLS = {"sampling", "cli", "verify"}

SHELLS = {
    # parsers and constructors: where numbers come in
    "exact.<module>": "HALF = Fraction(1, 2)",
    "exact.rat_from_str": "parser",
    "connection.PQState.make": "constructor from numbers",
    "stability.Weights.of_eps": "constructor from numbers",
    "stability.Weights.cleared": "eps over one denominator, once per value",
    "mconv.odd_degree_weights": "constructor from numbers",
    # serializers and the ordering a serialized divisor is written in
    "exact.rat_to_str": "serializer",
    "higgs.sorted_divisor": "orders a divisor for output",
    # integrality predicates
    "connection.kappa_generic": "integrality of the exponents",
    "connection.kostov_generic": "integrality of the residue sums",
    "connection.nonresonant": "integrality of the residue differences",
    "stability.nonspecial_eps": "half-integrality of the signed sums",
    # kernel shells: clear denominators, build the Fraction results
    "exact.over_common_denominator": "the clearing step itself",
    "exact.solve_linear": "the tests' reference eliminator, over Q",
    "parabolic.direction_point": "poles and directions to integer points",
    "parabolic._conic_coefficients": "minors to (v0, v1, w0, w1, w2)",
    "parabolic.candidate_subbundles": "line coefficients from the cross product",
    "stability.classify_numerators": "wall values in error messages",
    "higgs._frame": "the frame values",
    "higgs._over_one_denominator": "polynomials to integer coefficients",
    "higgs.theta_divisor": "the poles and the free root",
    "lattice.form_signature": "the Gram matrix over Q",
    "mconv.mc_exponents": "the exponents back as Fractions",
}

# Code that must read no rational: the ring-generic cores, the code that
# feeds them integer points, and the integer kernels det4, poly_divide_root
# and _convolve.
CORES = ("parabolic.cross", "parabolic.dot", "parabolic._conic_row", "parabolic._fiber_row",
         "parabolic._signed_minors", "parabolic._conic_minors", "parabolic.in_general_position",
         "parabolic._resultant", "stability._score", "stability.nonspecial_numerators",
         "higgs._wronskian", "mconv._convolve",
         "exact.det4", "exact.poly_divide_root")

RATIONAL_ATTRIBUTES = {"numerator", "denominator"}
RATIONAL_CALLS = {"Fraction", "over_common_denominator"}


def rational_reads(source: str, module: str):
    """(scope, line, what) for each rational read in a module's source; the
    scope is `module.Qualified.name` of the innermost enclosing def or
    class, or `module.<module>`."""
    reads = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            what = None
            if isinstance(child, ast.Attribute) and child.attr in RATIONAL_ATTRIBUTES:
                what = "." + child.attr
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in RATIONAL_CALLS:
                    what = name + "(...)"
            if what:
                reads.append((".".join((module,) + (scope or ("<module>",))), child.lineno, what))
            visit(child, scope)

    visit(ast.parse(source), ())
    return reads


def defined_names(source: str, module: str):
    """The qualified names of every def and class in a module's source."""
    names = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(".".join((module,) + scope + (child.name,)))
                visit(child, scope + (child.name,))

    visit(ast.parse(source), ())
    return names


SOURCES = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
READS = [read for module, source in SOURCES.items() for read in rational_reads(source, module)]


def within(scope: str, shell: str) -> bool:
    return scope == shell or scope.startswith(shell + ".")


def in_shell(scope: str) -> bool:
    return scope.partition(".")[0] in WHOLE_MODULE_SHELLS or any(
        within(scope, shell) for shell in SHELLS)


def test_every_rational_read_sits_in_a_declared_shell():
    outside = [read for read in READS if not in_shell(read[0])]
    assert outside == []


def test_every_declared_shell_still_reads_a_rational():
    scopes = {scope for scope, _, _ in READS}
    stale = [shell for shell in SHELLS if not any(within(scope, shell) for scope in scopes)]
    assert stale == []
    assert WHOLE_MODULE_SHELLS <= {scope.partition(".")[0] for scope in scopes}


@pytest.mark.parametrize("core", CORES)
def test_core_is_defined_and_off_the_shell_list(core):
    module = core.partition(".")[0]
    assert core in defined_names(SOURCES[module], module)
    assert not in_shell(core)


def test_the_scan_sees_reads_in_nested_scopes_and_at_module_level():
    source = ("X = Fraction(1, 2)\n\nclass C:\n    def f(self, x):\n"
              "        return over_common_denominator([x.denominator])\n")
    assert rational_reads(source, "m") == [
        ("m.<module>", 1, "Fraction(...)"),
        ("m.C.f", 5, "over_common_denominator(...)"),
        ("m.C.f", 5, ".denominator"),
    ]
