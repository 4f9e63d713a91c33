"""Domain errors shared by all modules."""


class ModuliError(Exception):
    """Base class for all domain errors raised by this package."""


class DegenerateInput(ModuliError):
    """An input sits on the degeneracy locus of the requested formula
    (vanishing denominator, zero divisor where a nonzero one is required, ...)."""


class NoSolution(ModuliError):
    """An inconsistent linear system."""


class NormalFormDegenerate(ModuliError):
    """The normal form of the connection does not exist at this point
    (apparent singularity at a pole, or at infinity in the wrong chart)."""


class SpecialParameters(ModuliError):
    """Local exponents sit on a reflection hyperplane (not Kostov-generic
    or resonant), where the constructions of this package break down."""


class SpecialWeights(ModuliError):
    """Parabolic weights sit on a wall: some stability inequality is an
    exact equality and no zone/branch verdict exists."""


class NotSimple(ModuliError):
    """A decomposable quasiparabolic bundle was passed to an operation
    defined only on simple ones."""


class NoFiniteIntersection(ModuliError):
    """The two requested fibration fibers only meet at infinity."""


class SamplerExhausted(ModuliError):
    """A seeded sampler rejected every candidate it was allowed to draw:
    at this bound the requested parameters are (nearly) always special."""
