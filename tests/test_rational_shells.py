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

Only `exact` tells ℚ from another field, by three helpers:
`is_rational`, the one test; `quotient`, a `Fraction` for two ints and
field division otherwise; and `over_common_denominator`, which hands
values not in ℚ back over 1.  A type test, `isinstance(..., Fraction)`,
`type(...) is int` or `hasattr(..., "denominator")`, is a rational read
too, and outside `exact` it fails
`test_only_exact_tells_the_rationals_from_a_field`, shell or not.  The
integrality predicates ask `is_rational` first and hold at the generic
point, values not in ℚ.

The ring-generic kernels those shells wrap take coordinates in any
commutative ring, and `tests/test_certificates.py` runs them on
polynomial-ring symbols; `CORES` lists them with the other code that must
stay off the list.  `parabolic.direction_point` is the one shell
that turns a pole or a direction into an integer point, and
`QuasiPar.points` calls it once per direction and keeps the points; the
contact, conic and Wronskian cores, `_conic_minors`, `candidate_types`
and `section_type`, which feed them those points, never read a
denominator.  `parabolic._conic_coefficients` and `subbundle_of` divide
a line or the minors by `quotient`, and `higgs.sorted_divisor` orders by
`is_rational`, so they are cores as well.  So are the classifying map's
`is_simple` and `q_map` and the Higgs `representative`, which read the
points and `conic_minors`, and `connection.generic_numerators`, the
integer test that `kappa_generic` and the sampler share.  The Higgs
layer's one shell is `higgs._over_one_denominator`: `_frame` tests the
integer frame values (0, 1, a, b), and `theta_divisor` clears through it
and reads each contact root back by `quotient`.  `lattice.form_signature`
eliminates the Gram matrix on integers, and
`connection.lagrange_cleared`, the one Lagrange rule over
x(x-1)(x-t), runs over any field.  Nor do the zone score
`stability._score`, which the zone classifier, the branch test and the
destabilizer scores share, and the convolution's integer `_convolve`
read a rational.  Those callers read the integer eps that
`Weights.cleared` makes once per value, so they are off the list.  A
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
    "connection.KappaParams.generic_from_numerators": "constructor from numbers",
    "stability.Weights.of_eps": "constructor from numbers",
    "stability.Weights.cleared": "eps over one denominator, once per value",
    "mconv.odd_degree_weights": "constructor from numbers",
    # serializers
    "exact.rat_to_str": "serializer",
    "exact.to_json": "serializer",
    # integrality predicates
    "connection.kappa_generic": "integrality of the exponents",
    "connection.kostov_generic": "integrality of the residue sums",
    "connection.nonresonant": "integrality of the residue differences",
    # the one test of Q against another field, and the clearing step
    "exact.is_rational": "ints and Fractions are Q, anything else another field",
    "exact.quotient": "a Fraction for two ints, field division otherwise",
    "exact.over_common_denominator": "the clearing step itself",
    # kernel shells: clear denominators, build the Fraction results
    "exact.solve_linear": "the tests' reference eliminator, over Q",
    "parabolic.direction_point": "poles and directions to integer points",
    "stability.classify_numerators": "wall values in error messages",
    "higgs._over_one_denominator": "polynomials to integer coefficients",
    "mconv.mc_exponents": "the exponents back as Fractions",
}

# Code that must read no rational: the ring-generic cores, the code that
# feeds them integer points or divides their results by `quotient`, the
# divisor order, the Lagrange rule, the integer Gram elimination, and the
# kernels det4, poly_divide_root and _convolve.
CORES = ("parabolic.cross", "parabolic.dot", "parabolic._conic_row", "parabolic._fiber_row",
         "parabolic._signed_minors", "parabolic._conic_minors", "parabolic.in_general_position",
         "parabolic._resultant", "parabolic.QuasiPar.points", "parabolic.candidate_types",
         "parabolic.section_type", "parabolic._conic_coefficients", "parabolic.subbundle_of",
         "parabolic.conic_minors", "parabolic.is_simple", "parabolic.q_map",
         "higgs.sorted_divisor", "higgs.representative", "higgs._frame", "higgs.theta_divisor",
         "connection.generic_numerators", "connection.lagrange_cleared", "lattice.form_signature",
         "stability._score", "stability.nonspecial_numerators", "higgs._wronskian", "mconv._convolve",
         "exact.det4", "exact.poly_divide_root")

RATIONAL_ATTRIBUTES = {"numerator", "denominator"}
RATIONAL_CALLS = {"Fraction", "over_common_denominator"}
TYPE_TESTS = ("isinstance(..., Fraction)", "type(...) is int", 'hasattr(..., "denominator")')


def _names(node) -> set:
    """The plain names a node is, or a tuple of them holds."""
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    return {elt.id for elt in elts if isinstance(elt, ast.Name)}


def type_test(node):
    """Which of the `TYPE_TESTS` a node is, if any."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and len(node.args) == 2:
        name, arg = node.func.id, node.args[1]
        if name == "isinstance" and "Fraction" in _names(arg):
            return TYPE_TESTS[0]
        if (name == "hasattr" and isinstance(arg, ast.Constant)
                and arg.value in RATIONAL_ATTRIBUTES):
            return TYPE_TESTS[2]
    if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
            and getattr(node.left.func, "id", None) == "type"
            and any(_names(c) & {"int", "Fraction"} for c in node.comparators)):
        return TYPE_TESTS[1]
    return None


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
            what = type_test(child)
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


def test_only_exact_tells_the_rationals_from_a_field():
    """The type tests sit in `exact.is_rational`, and in the serializer
    `exact.to_json`, which writes a `Fraction` as "n/d"."""
    assert {scope for scope, _, what in READS if what in TYPE_TESTS} == {
        "exact.is_rational", "exact.to_json"}


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


def called_names(source: str, qualname: str) -> set:
    """The names called anywhere inside the def `qualname` of a source."""
    node = ast.parse(source)
    for name in qualname.split("."):
        node = next(child for child in node.body
                    if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == name)
    return {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(node) if isinstance(call, ast.Call)}


def test_the_higgs_layer_reads_q_in_one_function():
    """The frame, the representative and the divisor run on integer points
    and integer coefficient lists; only `_over_one_denominator` clears."""
    assert [shell for shell in SHELLS if shell.startswith("higgs.")] == [
        "higgs._over_one_denominator"]


def test_cached_points_clear_through_direction_point_only():
    """`QuasiPar.points` turns directions into integer points only by
    `direction_point`, the one clearing shell, and reads nothing else."""
    assert called_names(SOURCES["parabolic"], "QuasiPar.points") == {
        "direction_point", "is_inf", "tuple", "zip"}


def test_the_scan_sees_reads_in_nested_scopes_and_at_module_level():
    source = ("X = Fraction(1, 2)\n\nclass C:\n    def f(self, x):\n"
              "        return over_common_denominator([x.denominator])\n")
    assert rational_reads(source, "m") == [
        ("m.<module>", 1, "Fraction(...)"),
        ("m.C.f", 5, "over_common_denominator(...)"),
        ("m.C.f", 5, ".denominator"),
    ]


def test_the_scan_sees_every_type_test():
    source = ("def f(x):\n"
              "    return (isinstance(x, (int, Fraction)), type(x) is int,\n"
              "            hasattr(x, 'denominator'), isinstance(x, str), type(x) is str)\n")
    assert rational_reads(source, "m") == [("m.f", 2, TYPE_TESTS[0]), ("m.f", 2, TYPE_TESTS[1]),
                                           ("m.f", 3, TYPE_TESTS[2])]
