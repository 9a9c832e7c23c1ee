"""Semiring algebras used to weight transition systems.

Everything else in this package is generic over a :class:`Semiring`
instance: a carrier with a commutative additive monoid ``(+, zero)``, a
multiplicative monoid ``(*, one)``, two-sided distributivity, and an
annihilating zero.  Each shipped instance also provides a total ``star``
operation returning the countable sum ``1 + a + a*a + ...``, which is what
lets cyclic systems of equations be solved exactly.

Shipped instances (selected by name):

* ``boolean``     -- {false, true} with or/and.
* ``real``        -- non-negative rationals plus a symbolic infinity,
                     exact arithmetic via :class:`fractions.Fraction`.
* ``real-float``  -- non-negative floats; equality is epsilon-tolerant.
* ``tropical``    -- min-plus over non-negative rationals plus infinity.
* ``arctic``      -- max-plus over rationals plus both infinities.
* ``truncation``  -- {0..k} with min as sum and addition clamped at k.
* ``maxtimes``    -- [0, 1] with max and multiplication.

Values are plain Python objects (bool, Fraction, float, int, or the
module-level ``INF``/``NEG_INF`` sentinels); the semiring instance holds
the operations, so no per-value wrapper objects are allocated.  The four
instances over exact rationals (``real``, ``tropical``, ``arctic`` and
``maxtimes``) differ only in their algebra and in the bounds of their
carrier; they share one codec (coerce, parse and format).

The natural order of an idempotent instance is derived from its sum
rather than written out, and :func:`check_axioms` checks every instance
against one table of laws.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction


class _Extreme:
    """Symbolic signed infinity, distinct from every finite carrier value."""

    __slots__ = ("sign",)

    def __init__(self, sign):
        self.sign = sign

    def __repr__(self):
        return "inf" if self.sign > 0 else "-inf"

    def __eq__(self, other):
        return isinstance(other, _Extreme) and other.sign == self.sign

    def __hash__(self):
        return hash(("semiring-extreme", self.sign))


INF = _Extreme(1)
NEG_INF = _Extreme(-1)

_RATIONAL_RE = re.compile(r"^-?[0-9]+(/[0-9]+)?$")


def _parse_fraction(text):
    """Parse 'p/q' or 'n' into a Fraction; raise ValueError otherwise."""
    if not _RATIONAL_RE.match(text):
        raise ValueError("expected a rational literal 'p/q' or 'n', got %r" % text)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


class Semiring:
    """Base class fixing the operation contract shared by all instances.

    Subclasses set ``zero``/``one`` and implement ``add``, ``mul`` and
    ``star``.  Carrier values must be hashable with ``==`` as their
    equality, since refinement groups states on their weights as dict
    keys; no order on the carrier is needed.  A ``carrier_mode`` of
    ``"float"`` instead compares within a tolerance (``values_equal``).
    ``natural_leq(a, b)`` decides the natural preorder: whether
    some c exists with ``a + c == b``; ``zero`` is its bottom in every
    shipped instance.  Where ``idempotent`` is set it is derived from the
    sum (a <= b iff a + b == b); other instances implement it.

    An instance whose ``star`` is always ``one`` and whose ``add`` keeps
    the better of its operands under a total order defines
    ``best_first_key(v)``, smaller meaning better; saturation then solves
    by best-first search.  ``check_axioms`` verifies both properties.
    """

    name = "abstract"
    carrier_mode = None  # "boolean" | "exact-rational" | "float" | "bounded-integer"
    idempotent = False
    best_first_key = None
    zero = None
    one = None

    # -- core algebra --------------------------------------------------

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def star(self, a):
        """Least s with s == one + a*s (equals the countable sum of a**n)."""
        raise NotImplementedError

    def natural_leq(self, a, b):
        if self.idempotent:
            return self.values_equal(self.add(a, b), b)
        raise NotImplementedError

    # -- derived helpers -------------------------------------------------

    def values_equal(self, a, b):
        """Carrier equality; float instances override with a tolerance."""
        return a == b

    def is_zero(self, v):
        return self.values_equal(v, self.zero)

    def sum(self, values):
        total = self.zero
        for v in values:
            total = self.add(total, v)
        return total

    # -- I/O -----------------------------------------------------------

    def coerce(self, v):
        """Normalize a raw Python value into the carrier; ValueError if outside."""
        raise NotImplementedError

    def parse(self, text):
        """Parse a weight literal into the carrier, through one ``coerce``
        call; raises ValueError on malformed input."""
        raise NotImplementedError

    def format(self, v):
        raise NotImplementedError

    def sample_values(self):
        """Structured sample set (units, bounds, generic points) for axiom checks."""
        raise NotImplementedError

    def params(self):
        """Instance parameters as a dict, for document round trips."""
        return {}

    def describe(self):
        d = {"name": self.name}
        d.update(self.params())
        return d

    def __repr__(self):
        ps = self.params()
        if ps:
            inner = ", ".join("%s=%r" % kv for kv in sorted(ps.items()))
            return "%s(%s)" % (self.name, inner)
        return self.name


class BooleanSemiring(Semiring):
    """({false, true}, or, false, and, true); weak bisimulation over it is Milner's."""

    name = "boolean"
    carrier_mode = "boolean"
    idempotent = True
    zero = False
    one = True

    def add(self, a, b):
        return a or b

    def mul(self, a, b):
        return a and b

    def star(self, a):
        return True

    def best_first_key(self, v):
        return not v

    def coerce(self, v):
        if isinstance(v, bool):
            return v
        raise ValueError("boolean semiring carries bool values, got %r" % (v,))

    def parse(self, text):
        t = text.strip().lower()
        if t not in ("true", "1", "false", "0"):
            raise ValueError("expected true/false/1/0, got %r" % text)
        return self.coerce(t in ("true", "1"))

    def format(self, v):
        return "true" if v else "false"

    def sample_values(self):
        return [False, True]


class _RationalSemiring(Semiring):
    """Carrier codec shared by the instances over exact rationals.

    The carrier is the rationals between the bounds ``low`` and ``high``;
    a bound that is ``NEG_INF`` or ``INF`` is itself a carrier value.
    Literals are ``"p/q"``, ``"n"``, ``"inf"`` and ``"-inf"``.
    """

    carrier_mode = "exact-rational"
    low = 0
    high = INF

    def coerce(self, v):
        if type(v) is not Fraction:
            if v is INF or v is NEG_INF:
                if v is self.low or v is self.high:
                    return v
            elif isinstance(v, (int, Fraction)) and not isinstance(v, bool):
                return self.coerce(Fraction(v))
            raise ValueError("cannot use %r as a %s weight" % (v, self.name))
        low, high = self.low, self.high
        if (low is NEG_INF or v >= low) and (high is INF or v <= high):
            return v
        raise ValueError("%s carrier is [%s, %s], got %s" % (self.name, low, high, v))

    def parse(self, text):
        t = text.strip()
        if t == "inf":
            return self.coerce(INF)
        if t == "-inf":
            return self.coerce(NEG_INF)
        return self.coerce(_parse_fraction(t))

    def format(self, v):
        return str(v)  # the extremes print as "inf" and "-inf"


class RealSemiring(_RationalSemiring):
    """Non-negative extended rationals with exact arithmetic.

    ``INF`` is absorbing for + and for * against nonzero values, while
    ``INF * 0 == 0`` so that zero still annihilates.  ``star(a)`` is the
    geometric-series value 1/(1-a) below one and INF from one upward.
    """

    name = "real"
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        if a is INF or b is INF:
            return INF
        return a + b

    def mul(self, a, b):
        if not a or not b:  # INF is truthy
            return self.zero
        if a is INF or b is INF:
            return INF
        return a * b

    def star(self, a):
        if a is INF or a >= 1:
            return INF
        return 1 / (1 - a)

    def natural_leq(self, a, b):
        if b is INF:
            return True
        if a is INF:
            return False
        return a <= b

    def sample_values(self):
        return [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), INF]


class RealFloatSemiring(Semiring):
    """Float variant of the real semiring with epsilon-tolerant comparisons."""

    name = "real-float"
    carrier_mode = "float"
    zero = 0.0
    one = 1.0

    def __init__(self, epsilon=1e-9):
        if not (isinstance(epsilon, float) and 0 < epsilon < math.inf):
            raise ValueError("epsilon must be a positive finite float")
        self.epsilon = epsilon

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        # inf * 0.0 is nan in IEEE; the semiring needs an annihilating zero.
        if a == 0.0 or b == 0.0:
            return 0.0
        return a * b

    def star(self, a):
        if a >= 1.0:
            return math.inf
        return 1.0 / (1.0 - a)

    def natural_leq(self, a, b):
        if b == math.inf:
            return True
        if a == math.inf:
            return False
        return a <= b + self.epsilon

    def values_equal(self, a, b):
        if a == math.inf or b == math.inf:
            return a == b
        return abs(a - b) <= self.epsilon

    def coerce(self, v):
        if isinstance(v, bool):
            raise ValueError("bool is not a float weight")
        if isinstance(v, (int, float, Fraction)):
            v = float(v)
            if math.isnan(v) or v < 0:
                raise ValueError("weight %r outside the non-negative carrier" % v)
            return v
        raise ValueError("cannot use %r as a float weight" % (v,))

    def parse(self, text):
        t = text.strip()
        if t == "inf":
            return self.coerce(math.inf)
        if _RATIONAL_RE.match(t):
            return self.coerce(_parse_fraction(t))
        try:
            return self.coerce(float(t))
        except (ValueError, OverflowError):
            raise ValueError("malformed float literal %r" % text) from None

    def format(self, v):
        return "inf" if v == math.inf else repr(v)

    def sample_values(self):
        return [0.0, 0.5, 1.0, 2.0, math.inf]

    def params(self):
        return {"epsilon": self.epsilon}


class TropicalSemiring(_RationalSemiring):
    """Min-plus over non-negative rationals plus INF (which is the zero).

    The carrier is restricted to non-negative values so that ``star`` is
    total: with a >= 0 the least solution of s == min(0, a + s) is 0.
    """

    name = "tropical"
    idempotent = True
    zero = INF
    one = Fraction(0)

    def add(self, a, b):
        if a is INF:
            return b
        if b is INF:
            return a
        return a if a <= b else b

    def mul(self, a, b):
        if a is INF or b is INF:
            return INF
        return a + b

    def star(self, a):
        return Fraction(0)

    def best_first_key(self, v):
        return math.inf if v is INF else v

    def sample_values(self):
        return [INF, Fraction(0), Fraction(1), Fraction(7, 2), Fraction(5)]


class ArcticSemiring(_RationalSemiring):
    """Max-plus over rationals extended with both infinities.

    NEG_INF is the zero and must annihilate, so NEG_INF + INF is NEG_INF
    under ``mul``.  ``star`` is 0 for a <= 0 and INF for a > 0.
    """

    name = "arctic"
    idempotent = True
    low = NEG_INF
    zero = NEG_INF
    one = Fraction(0)

    def add(self, a, b):
        if a is NEG_INF:
            return b
        if b is NEG_INF:
            return a
        if a is INF or b is INF:
            return INF
        return a if a >= b else b

    def mul(self, a, b):
        if a is NEG_INF or b is NEG_INF:
            return NEG_INF
        if a is INF or b is INF:
            return INF
        return a + b

    def star(self, a):
        if a is NEG_INF:
            return Fraction(0)
        if a is INF or a > 0:
            return INF
        return Fraction(0)

    def sample_values(self):
        return [NEG_INF, Fraction(-1), Fraction(0), Fraction(2), INF]


class TruncationSemiring(Semiring):
    """({0..k}, min, k, clamped +, 0): distances saturating at horizon k.

    Note the ordering of the tuple: min is the sum with k as its unit, and
    the clamped addition min(a + b, k) is the product with unit 0.  Putting
    max first instead would break annihilation (min(0 + a, k) is a, not
    the zero), which is checked by the axiom suite.
    """

    name = "truncation"
    carrier_mode = "bounded-integer"
    idempotent = True

    def __init__(self, k):
        if not isinstance(k, int) or isinstance(k, bool) or k <= 0:
            raise ValueError("truncation bound k must be a positive integer")
        self.k = k
        self.zero = k
        self.one = 0

    def add(self, a, b):
        return a if a <= b else b

    def mul(self, a, b):
        s = a + b
        return s if s < self.k else self.k

    def star(self, a):
        return 0

    def best_first_key(self, v):
        return v

    def coerce(self, v):
        if isinstance(v, int) and not isinstance(v, bool) and 0 <= v <= self.k:
            return v
        raise ValueError("truncation carrier is {0..%d}, got %r" % (self.k, v))

    def parse(self, text):
        t = text.strip()
        if not re.match(r"^[0-9]+$", t):
            raise ValueError("expected an integer in 0..%d, got %r" % (self.k, text))
        return self.coerce(int(t))

    def format(self, v):
        return str(v)

    def sample_values(self):
        vals = [0, 1, self.k // 2, self.k - 1, self.k]
        return sorted(set(vals))

    def params(self):
        return {"k": self.k}


class MaxTimesSemiring(_RationalSemiring):
    """([0,1], max, 0, *, 1): best-run probabilities."""

    name = "maxtimes"
    idempotent = True
    high = 1
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a if a >= b else b

    def mul(self, a, b):
        return a * b

    def star(self, a):
        return Fraction(1)

    def best_first_key(self, v):
        return -v

    def sample_values(self):
        return [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]


SEMIRING_NAMES = (
    "boolean",
    "real",
    "real-float",
    "tropical",
    "arctic",
    "truncation",
    "maxtimes",
)


def by_name(name, **params):
    """Instantiate a shipped semiring by name.

    ``truncation`` requires ``k`` (positive int); ``real-float`` accepts
    ``epsilon`` (default 1e-9).  Other instances take no parameters.
    """
    known = {
        "boolean": BooleanSemiring,
        "real": RealSemiring,
        "real-float": RealFloatSemiring,
        "tropical": TropicalSemiring,
        "arctic": ArcticSemiring,
        "truncation": TruncationSemiring,
        "maxtimes": MaxTimesSemiring,
    }
    if name not in known:
        raise ValueError(
            "unknown semiring %r (known: %s)" % (name, ", ".join(SEMIRING_NAMES))
        )
    cls = known[name]
    if name == "truncation":
        if "k" not in params:
            raise ValueError("truncation semiring needs parameter k")
        extra = set(params) - {"k"}
        if extra:
            raise ValueError("unexpected parameters %s for truncation" % sorted(extra))
        return cls(params["k"])
    if name == "real-float":
        extra = set(params) - {"epsilon"}
        if extra:
            raise ValueError("unexpected parameters %s for real-float" % sorted(extra))
        return cls(**params)
    if params:
        raise ValueError("semiring %r takes no parameters" % name)
    return cls()


# -- axiom checking -------------------------------------------------------


@dataclass
class AxiomCheck:
    law: str
    ok: bool
    witness: str | None = None


@dataclass
class AxiomReport:
    semiring: str
    checks: list[AxiomCheck] = field(default_factory=list)

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]


def check_axioms(sr, samples=None):
    """Exercise the semiring laws over a finite sample set.

    The laws are one table of (name, arity, law) entries: associativity,
    commutativity and identity of +, associativity and identity of *, both
    distributivities, annihilation by zero, the star fixed-point law, that
    zero is a bottom for the natural preorder, its reflexivity and
    transitivity, (for instances that claim it) idempotence of +, and (for
    instances with a ``best_first_key``) that star is one and that + keeps
    the operand with the better key.  A law maps ``arity`` samples to the
    two sides of an equation or to the truth of a predicate, and is tried
    on every such tuple of samples.  Returns an :class:`AxiomReport` with
    one entry per law carrying the first counterexample found, if any.
    """
    if samples is None:
        samples = sr.sample_values()
    samples = list(samples)
    if not samples:
        raise ValueError("need a nonempty sample set")
    add, mul, star, leq = sr.add, sr.mul, sr.star, sr.natural_leq
    zero, one = sr.zero, sr.one
    laws = [
        ("add-associative", 3, lambda a, b, c: (add(add(a, b), c), add(a, add(b, c)))),
        ("add-commutative", 2, lambda a, b: (add(a, b), add(b, a))),
        ("add-identity", 1, lambda a: (add(a, zero), a)),
        ("mul-associative", 3, lambda a, b, c: (mul(mul(a, b), c), mul(a, mul(b, c)))),
        ("mul-identity-left", 1, lambda a: (mul(one, a), a)),
        ("mul-identity-right", 1, lambda a: (mul(a, one), a)),
        ("distribute-left", 3,
         lambda a, b, c: (mul(a, add(b, c)), add(mul(a, b), mul(a, c)))),
        ("distribute-right", 3,
         lambda a, b, c: (mul(add(a, b), c), add(mul(a, c), mul(b, c)))),
        ("annihilate-left", 1, lambda a: (mul(zero, a), zero)),
        ("annihilate-right", 1, lambda a: (mul(a, zero), zero)),
        ("star-fixed-point", 1, lambda a: (star(a), add(one, mul(a, star(a))))),
        ("zero-bottom", 1, lambda a: leq(zero, a)),
        ("leq-reflexive", 1, lambda a: leq(a, a)),
        ("leq-transitive", 3,
         lambda a, b, c: not (leq(a, b) and leq(b, c)) or leq(a, c)),
    ]
    if sr.idempotent:
        laws.append(("add-idempotent", 1, lambda a: (add(a, a), a)))
    key = sr.best_first_key
    if key is not None:
        laws.append(("star-is-one", 1, lambda a: (star(a), one)))
        laws.append(("add-keeps-better-key", 2,
                     lambda a, b: (add(a, b), a if key(a) <= key(b) else b)))

    report = AxiomReport(semiring=repr(sr))
    for name, arity, law in laws:
        witness = None
        for args in itertools.product(samples, repeat=arity):
            result = law(*args)
            equation = isinstance(result, tuple)
            if not (sr.values_equal(*result) if equation else result):
                witness = " ".join("%s=%s" % (v, sr.format(x)) for v, x in zip("abc", args))
                if equation:
                    witness += ": " + " != ".join(map(sr.format, result))
                break
        report.checks.append(AxiomCheck(name, witness is None, witness))
    return report
