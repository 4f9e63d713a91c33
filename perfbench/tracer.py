"""In-memory span tracer that times calls into ``pvi_moduli`` from outside.

The package is not modified: ``Tracer.install`` replaces each target
function by a timing wrapper in every place the package binds it (module
globals, including ``from .x import f`` aliases, and dict registries such
as ``verify.SUITES``), and ``uninstall`` puts the originals back.

A span records its name, start, end and parent.  Self time is a span's
duration minus the time covered by its child spans; busy time counts the
outermost span of a name only, so recursion is not counted twice.
"""
from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

PACKAGE = "pvi_moduli"

SUITE_NAMES = ("connection", "backlund", "lattice", "zones", "higgs", "mc")

# (module, attribute path inside the module, span name): one layer per module.
LAYER_TARGETS = (
    ("exact", "solve_linear", "exact.solve_linear"),
    ("connection", "KappaParams.from_k1234", "connection.KappaParams.from_k1234"),
    ("connection", "kappa_generic", "connection.kappa_generic"),
    ("connection", "build_connection", "connection.build_connection"),
    ("connection", "eigen_table", "connection.eigen_table"),
    ("parabolic", "line_through", "parabolic.line_through"),
    ("parabolic", "conic_subbundle", "parabolic.conic_subbundle"),
    ("parabolic", "phi_map", "parabolic.phi_map"),
    ("stability", "find_destabilizer", "stability.find_destabilizer"),
    ("stability", "classify_zone", "stability.classify_zone"),
    ("higgs", "higgs_limit", "higgs.higgs_limit"),
    ("higgs", "theta_divisor", "higgs.theta_divisor"),
    ("higgs", "representative", "higgs.representative"),
    ("backlund", "apply_word", "backlund.apply_word"),
    ("backlund", "apply_generator", "backlund.apply_generator"),
    ("mconv", "mc_exponents", "mconv.mc_exponents"),
    ("mconv", "nonspecial_exponents", "mconv.nonspecial_exponents"),
    ("lattice", "enumerate_transversal", "lattice.enumerate_transversal"),
    ("sampling", "RationalSampler.retry", "sampling.retry"),
)

VERIFY_TARGETS = (("verify", "run_suite", "verify.run_suite"),) + tuple(
    ("verify", f"suite_{s}", f"verify.suite_{s}") for s in SUITE_NAMES)

CLI_TARGETS = (("cli", "main", "cli.main"),)

# The Fraction operations counted by ``count_fractions``.
FRACTION_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__",
                    "__mul__", "__rmul__", "__truediv__", "__rtruediv__")

ROOT_SPAN = "bench.pass"

# Prefix of the stderr line on which a traced CLI child reports its trace.
TRACE_MARK = "PERFBENCH-TRACE "


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.stats = {}      # name -> [calls, busy_s, self_s, errors]
        self.fraction_ops = 0
        self.fraction_max_bits = 0
        self.sample_attempts = 0
        self.sample_accepts = 0
        self._stack = []     # [span index, time covered by children] per open span
        self._depth = {}     # name -> number of open spans with that name
        self._undo = []      # callables restoring what install() replaced

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Forget recorded spans and counts; installed wrappers stay."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.spans = []
        self.stats = {}
        self.fraction_ops = 0
        self.fraction_max_bits = 0
        self.sample_attempts = 0
        self.sample_accepts = 0

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        rec = [name, 0.0, 0.0, parent]
        self._stack.append([len(self.spans), 0.0])
        self.spans.append(rec)
        self._depth[name] = self._depth.get(name, 0) + 1
        rec[1] = perf_counter()

    def _exit(self, name: str, failed: int) -> None:
        end = perf_counter()
        index, child = self._stack.pop()
        rec = self.spans[index]
        rec[2] = end
        duration = end - rec[1]
        if self._stack:
            self._stack[-1][1] += duration
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0]
        st[0] += 1
        st[2] += duration - child
        st[3] += failed
        depth = self._depth[name] - 1
        self._depth[name] = depth
        if depth == 0:
            st[1] += duration

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code, such as one whole pass."""
        self._enter(name)
        failed = 1
        try:
            yield
            failed = 0
        finally:
            self._exit(name, failed)

    def wrap(self, name: str, fn):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(name, 1)
                raise
            leave(name, 0)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap each (module, path, span name) target wherever it is bound."""
        for module_name, path, span_name in targets:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            owner_path, _, attr = path.rpartition(".")
            if owner_path:
                owner = getattr(module, owner_path)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(span_name, raw.__func__))
                else:
                    new = self.wrap(span_name, raw)
                self._setattr(owner, attr, new)
            else:
                fn = getattr(module, attr)
                self._rebind(fn, self.wrap(span_name, fn))

    def _rebind(self, fn, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    self._setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is fn:
                            self._setitem(value, k, wrapper)

    def _setattr(self, owner, attr, new) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old))

    def _setitem(self, mapping, key, new) -> None:
        old = mapping[key]
        mapping[key] = new
        self._undo.append(lambda: mapping.__setitem__(key, old))

    def count_fractions(self) -> None:
        """Count calls into the Fraction arithmetic dunders (``fraction.ops``,
        including calls that return NotImplemented for a non-Fraction operand)
        and the widest numerator or denominator produced (``fraction.max_bits``)."""
        for dunder in FRACTION_DUNDERS:
            self._setattr(Fraction, dunder, self._counted(Fraction.__dict__[dunder]))

    def _counted(self, op):
        tracer = self

        def counted(a, b):
            tracer.fraction_ops += 1
            r = op(a, b)
            if isinstance(r, Fraction):
                bits = max(r.numerator.bit_length(), r.denominator.bit_length())
                if bits > tracer.fraction_max_bits:
                    tracer.fraction_max_bits = bits
            return r

        return counted

    def count_samples(self) -> None:
        """Count the candidates RationalSampler.retry tests and accepts."""
        sampling = importlib.import_module(f"{PACKAGE}.sampling")
        cls = sampling.RationalSampler
        retry = cls.__dict__["retry"]
        tracer = self

        @functools.wraps(retry)
        def counted_retry(sampler, make, accept, *args, **kwargs):
            def counted_accept(x):
                ok = accept(x)
                tracer.sample_attempts += 1
                tracer.sample_accepts += bool(ok)
                return ok
            return retry(sampler, make, counted_accept, *args, **kwargs)

        self._setattr(cls, "retry", counted_retry)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results -----------------------------------------------------------

    def export(self) -> dict:
        return {"stats": self.stats, "fraction_ops": self.fraction_ops,
                "fraction_max_bits": self.fraction_max_bits,
                "sample_attempts": self.sample_attempts,
                "sample_accepts": self.sample_accepts, "spans": self.spans}
