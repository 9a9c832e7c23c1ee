"""Unit tests for the semiring instances and the axiom checker."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import wbisim as wb
from wbisim import INF, NEG_INF, Semiring, check_axioms, by_name


ALL_INSTANCES = [
    by_name("boolean"),
    by_name("real"),
    by_name("real-float"),
    by_name("tropical"),
    by_name("arctic"),
    by_name("truncation", k=1),
    by_name("truncation", k=10),
    by_name("maxtimes"),
]


def law_names(report):
    return {c.law for c in report.checks}


def failed_laws(report):
    return {c.law for c in report.failures()}


class TestBoolean:
    sr = by_name("boolean")

    def test_ops(self):
        assert self.sr.add(True, False) is True
        assert self.sr.add(False, False) is False
        assert self.sr.mul(True, False) is False
        assert self.sr.mul(True, True) is True
        assert self.sr.zero is False and self.sr.one is True

    def test_star_is_constant_true(self):
        assert self.sr.star(False) is True
        assert self.sr.star(True) is True

    def test_natural_order(self):
        assert self.sr.natural_leq(False, True)
        assert not self.sr.natural_leq(True, False)

    def test_parse_format(self):
        assert self.sr.parse("true") is True
        assert self.sr.parse("0") is False
        assert self.sr.parse(self.sr.format(True)) is True


class TestReal:
    sr = by_name("real")

    def test_ops(self):
        assert self.sr.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)
        assert self.sr.mul(Fraction(2, 3), Fraction(3, 4)) == Fraction(1, 2)

    def test_star_below_one_is_geometric_limit(self):
        a = Fraction(1, 2)
        limit = self.sr.star(a)
        assert limit == 2
        partial = sum((a**i for i in range(64)), Fraction(0))
        assert self.sr.natural_leq(partial, limit)
        assert limit - partial < Fraction(1, 2**60)

    def test_star_at_and_above_one_diverges(self):
        assert self.sr.star(Fraction(1)) is INF
        assert self.sr.star(Fraction(3, 2)) is INF
        assert self.sr.star(INF) is INF

    def test_infinity_arithmetic(self):
        assert self.sr.add(INF, Fraction(5)) is INF
        assert self.sr.mul(INF, Fraction(0)) == 0
        assert self.sr.mul(Fraction(0), INF) == 0
        assert self.sr.mul(INF, Fraction(2, 7)) is INF
        assert self.sr.mul(Fraction(1, 2), INF) is INF
        assert self.sr.mul(INF, INF) is INF

    def test_rejects_negative_and_float_text(self):
        with pytest.raises(ValueError):
            self.sr.coerce(Fraction(-1, 2))
        with pytest.raises(ValueError):
            self.sr.parse("-1")
        with pytest.raises(ValueError):
            self.sr.parse("0.5")

    def test_parse_format_round_trip(self):
        for text in ["0", "1", "7/3", "inf"]:
            assert self.sr.format(self.sr.parse(text)) == text

    @given(
        st.fractions(min_value=0, max_value=100),
        st.fractions(min_value=0, max_value=100),
    )
    def test_natural_order_is_additive_reachability(self, a, b):
        assert self.sr.natural_leq(a, a + b)
        if b > 0:
            assert not self.sr.natural_leq(a + b, a)


class TestRealFloat:
    sr = by_name("real-float")

    def test_tolerant_equality(self):
        assert self.sr.values_equal(0.3, 0.3 + 1e-12)
        assert not self.sr.values_equal(0.3, 0.3 + 1e-6)
        assert self.sr.values_equal(float("inf"), float("inf"))
        assert not self.sr.values_equal(float("inf"), 1e300)

    def test_tolerance_scales_with_magnitude_above_one(self):
        # one ulp at 2.5e9 is 4.8e-7, far above an absolute 1e-9
        big = 2499998544.399567
        assert self.sr.values_equal(big, big + 4.8e-7)
        assert self.sr.values_equal(big + 4.8e-7, big)
        assert self.sr.values_equal(big, big + 2) and not self.sr.values_equal(big, big + 3)
        assert not self.sr.values_equal(1e-10, 2e-9)

    def test_equal_values_are_ordered_both_ways(self):
        big = 2499998544.399567
        pairs = [(big, big + 2), (big, big + 4.8e-7), (0.3, 0.3 + 1e-12), (0.0, 1e-10)]
        pairs += [(1e7 * (1 + k * 1e-10), 1e7) for k in range(-5, 6)]
        inf = float("inf")
        pairs += [(inf, inf)]
        for a, b in pairs:
            assert self.sr.values_equal(a, b), (a, b)
            assert self.sr.natural_leq(a, b) and self.sr.natural_leq(b, a), (a, b)
        assert not self.sr.natural_leq(big + 3, big)
        assert self.sr.natural_leq(big, big + 3)
        assert self.sr.natural_leq(big, inf) and not self.sr.natural_leq(inf, big)

    def test_star(self):
        assert self.sr.star(0.5) == 2.0
        assert self.sr.star(1.0) == float("inf")

    def test_inf_times_zero_is_zero(self):
        assert self.sr.mul(float("inf"), 0.0) == 0.0
        assert self.sr.mul(0.0, float("inf")) == 0.0

    def test_custom_epsilon(self):
        loose = by_name("real-float", epsilon=0.5)
        assert loose.values_equal(1.0, 1.25)
        assert loose.params()["epsilon"] == 0.5
        whole = by_name("real-float", epsilon=1)
        assert type(whole.epsilon) is float and whole.params()["epsilon"] == 1.0

    @pytest.mark.parametrize(
        "epsilon", [float("inf"), float("nan"), 0.0, -1e-9, 0, -1, True, 10**400, -(10**400)]
    )
    def test_epsilon_must_be_positive_and_finite(self, epsilon):
        # an infinite epsilon would make every two weights equal
        with pytest.raises(ValueError):
            by_name("real-float", epsilon=epsilon)


class TestTropical:
    sr = by_name("tropical")

    def test_ops(self):
        assert self.sr.add(Fraction(3), Fraction(5)) == 3
        assert self.sr.mul(Fraction(3), Fraction(5)) == 8
        assert self.sr.zero is INF
        assert self.sr.one == 0

    def test_star_is_constant_one(self):
        assert self.sr.star(Fraction(7)) == 0
        assert self.sr.star(INF) == 0

    def test_natural_order_reverses_numbers(self):
        assert self.sr.natural_leq(INF, Fraction(5))
        assert self.sr.natural_leq(Fraction(5), Fraction(2))
        assert not self.sr.natural_leq(Fraction(2), Fraction(5))

    def test_zero_annihilates(self):
        assert self.sr.mul(INF, Fraction(3)) is INF


class TestArctic:
    sr = by_name("arctic")

    def test_ops(self):
        assert self.sr.add(Fraction(-1), Fraction(2)) == 2
        assert self.sr.mul(Fraction(-1), Fraction(2)) == 1
        assert self.sr.zero is NEG_INF
        assert self.sr.one == 0

    def test_zero_annihilates_even_infinity(self):
        assert self.sr.mul(NEG_INF, INF) is NEG_INF
        assert self.sr.mul(INF, NEG_INF) is NEG_INF

    def test_star(self):
        assert self.sr.star(Fraction(-1)) == 0
        assert self.sr.star(Fraction(0)) == 0
        assert self.sr.star(Fraction(2)) is INF

    def test_negative_weights_allowed(self):
        assert self.sr.coerce(Fraction(-7, 2)) == Fraction(-7, 2)


class TestTruncation:
    sr = by_name("truncation", k=10)

    def test_ops(self):
        assert self.sr.zero == 10 and self.sr.one == 0
        assert self.sr.add(7, 3) == 3
        assert self.sr.mul(7, 6) == 10
        assert self.sr.mul(2, 3) == 5

    def test_star_is_constant_one(self):
        assert self.sr.star(0) == 0
        assert self.sr.star(10) == 0

    def test_carrier_bounds(self):
        with pytest.raises(ValueError):
            self.sr.coerce(11)
        with pytest.raises(ValueError):
            self.sr.coerce(-1)
        with pytest.raises(ValueError):
            self.sr.coerce(Fraction(1, 2))

    def test_requires_k(self):
        with pytest.raises(ValueError):
            by_name("truncation")
        with pytest.raises(ValueError):
            by_name("truncation", k=0)


class TestMaxTimes:
    sr = by_name("maxtimes")

    def test_ops(self):
        assert self.sr.add(Fraction(1, 3), Fraction(1, 2)) == Fraction(1, 2)
        assert self.sr.mul(Fraction(1, 3), Fraction(1, 2)) == Fraction(1, 6)

    def test_star_is_constant_one(self):
        assert self.sr.star(Fraction(0)) == 1
        assert self.sr.star(Fraction(1)) == 1

    def test_unit_interval_carrier(self):
        with pytest.raises(ValueError):
            self.sr.coerce(Fraction(3, 2))


class TestRegistry:
    def test_unknown_name(self):
        with pytest.raises(ValueError):
            by_name("lukasiewicz")

    def test_unexpected_params_rejected(self):
        with pytest.raises(ValueError):
            by_name("boolean", k=3)
        with pytest.raises(ValueError):
            by_name("real", epsilon=0.1)
        with pytest.raises(ValueError, match=r"unexpected parameters \['name'\] for real"):
            by_name("real", name="x")

    def test_describe_reports_name_and_params(self):
        for sr in ALL_INSTANCES:
            d = sr.describe()
            assert d["name"] == sr.name
        assert by_name("truncation", k=10).describe()["k"] == 10

    def test_params_rebuild_the_instance(self):
        for sr in ALL_INSTANCES + [by_name("real-float", epsilon=0.25)]:
            assert by_name(sr.name, **sr.params()).describe() == sr.describe()
            assert set(sr.params()) == set(type(sr).parameters)


BASE_LAWS = [
    "add-associative",
    "add-commutative",
    "add-identity",
    "mul-associative",
    "mul-identity-left",
    "mul-identity-right",
    "distribute-left",
    "distribute-right",
    "annihilate-left",
    "annihilate-right",
    "star-fixed-point",
    "zero-bottom",
    "leq-reflexive",
    "leq-transitive",
]
IDEMPOTENT = ["add-idempotent"]
SEARCH = ["star-is-one", "add-keeps-better-key"]


class TestAxiomChecker:
    @pytest.mark.parametrize("sr", ALL_INSTANCES, ids=repr)
    def test_all_shipped_instances_pass(self, sr):
        report = check_axioms(sr)
        assert report.ok, [(c.law, c.witness) for c in report.failures()]

    def test_empty_sample_set_is_rejected(self):
        with pytest.raises(ValueError, match="^need a nonempty sample set$"):
            check_axioms(by_name("real"), [])

    @pytest.mark.parametrize("sr", ALL_INSTANCES, ids=repr)
    def test_idempotence_checked_only_where_claimed(self, sr):
        report = check_axioms(sr)
        assert ("add-idempotent" in law_names(report)) == sr.idempotent

    @pytest.mark.parametrize("sr", ALL_INSTANCES, ids=repr)
    def test_search_laws_checked_only_where_claimed(self, sr):
        # Star is one, and sums keep the better operand, exactly on the
        # instances that saturate by best-first search.
        claims = sr.name in ("boolean", "tropical", "truncation", "maxtimes")
        assert (sr.best_first_key is not None) == claims
        report = check_axioms(sr)
        search_laws = {"star-is-one", "add-keeps-better-key"}
        assert law_names(report) & search_laws == (search_laws if claims else set())
        assert report.ok

    def test_reversed_search_key_fails(self):
        class Reversed(type(by_name("tropical"))):
            def best_first_key(self, v):
                return -1 if v is INF else -v

        report = check_axioms(Reversed())
        assert failed_laws(report) == {"add-keeps-better-key"}

    def test_zero_is_bottom_everywhere(self):
        for sr in ALL_INSTANCES:
            for v in sr.sample_values():
                assert sr.natural_leq(sr.zero, v)

    def test_subtraction_fails_commutativity(self):
        class Subtraction(Semiring):
            name = "subtraction"
            carrier_mode = "exact"
            idempotent = False
            zero = Fraction(0)
            one = Fraction(1)

            def add(self, a, b):
                return a - b

            def mul(self, a, b):
                return a * b

            def star(self, a):
                return Fraction(1)

            def natural_leq(self, a, b):
                return True

            def format(self, v):
                return str(v)

            def sample_values(self):
                return [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2)]

        report = check_axioms(Subtraction())
        assert not report.ok
        failed = failed_laws(report)
        assert "add-commutative" in failed
        assert "add-associative" in failed
        witnesses = {c.law: c.witness for c in report.failures()}
        assert witnesses["add-associative"] == "a=0 b=0 c=1: -1 != 1"
        assert witnesses["add-commutative"] == "a=0 b=1: -1 != 1"

    def test_axiom_failure_carries_witness(self):
        class BadStar(Semiring):
            name = "bad-star"
            carrier_mode = "exact"
            idempotent = True
            zero = False
            one = True

            def add(self, a, b):
                return a or b

            def mul(self, a, b):
                return a and b

            def star(self, a):
                return False  # violates star(a) = 1 + a * star(a)

            def natural_leq(self, a, b):
                return b or not a

            def format(self, v):
                return str(v)

            def sample_values(self):
                return [False, True]

        report = check_axioms(BadStar())
        bad = [c for c in report.checks if c.law == "star-fixed-point"][0]
        assert not bad.ok
        assert bad.witness == "a=False: False != True"

    def test_three_sample_predicate_failure_names_all_three(self):
        class Stepwise(type(by_name("truncation", k=5))):
            # The zero lies below every value, any other value only below
            # itself and the number one less: reflexive with a bottom, but
            # not transitive.
            def natural_leq(self, a, b):
                return a == self.zero or 0 <= a - b <= 1

        report = check_axioms(Stepwise(5))
        assert [(c.law, c.witness) for c in report.failures()] == [
            ("leq-transitive", "a=2 b=1 c=0")
        ]

    def test_predicate_failure_names_its_samples(self):
        class Numeric(type(by_name("truncation", k=5))):
            # The numeric order, which is the reverse of the natural one.
            def natural_leq(self, a, b):
                return a <= b

        report = check_axioms(Numeric(5))
        assert [(c.law, c.witness) for c in report.failures()] == [("zero-bottom", "a=0")]

    @pytest.mark.parametrize(
        "sr,extra",
        [
            (by_name("boolean"), IDEMPOTENT + SEARCH),
            (by_name("real"), []),
            (by_name("real-float"), []),
            (by_name("tropical"), IDEMPOTENT + SEARCH),
            (by_name("arctic"), IDEMPOTENT),
            (by_name("truncation", k=10), IDEMPOTENT + SEARCH),
            (by_name("maxtimes"), IDEMPOTENT + SEARCH),
        ],
        ids=repr,
    )
    def test_law_names_in_order(self, sr, extra):
        assert [c.law for c in check_axioms(sr).checks] == BASE_LAWS + extra


RATIONAL = ["real", "tropical", "arctic", "maxtimes"]

# What real, tropical, arctic and maxtimes make of each input, in that
# order; None means the carrier rejects it.  Strings go through parse,
# other values through coerce.
CODEC_CASES = [
    ("inf", (INF, INF, INF, None)),
    ("-inf", (None, None, NEG_INF, None)),
    ("-1", (None, None, Fraction(-1), None)),
    ("3/2", (Fraction(3, 2),) * 3 + (None,)),
    ("1/2", (Fraction(1, 2),) * 4),
    ("0.5", (None,) * 4),
    (True, (None,) * 4),
    (INF, (INF, INF, INF, None)),
    (NEG_INF, (None, None, NEG_INF, None)),
    (1, (Fraction(1),) * 4),
    (-1, (None, None, Fraction(-1), None)),
    (0.5, (None,) * 4),
]


def _numeric(v):
    return float("inf") if v is INF else float("-inf") if v is NEG_INF else v


class TestRationalCodec:
    """The four instances over exact rationals share one carrier codec."""

    @pytest.mark.parametrize(
        "name,raw,expected",
        [(name, raw, row[i]) for raw, row in CODEC_CASES for i, name in enumerate(RATIONAL)],
        ids=lambda v: repr(v),
    )
    def test_accepts_exactly_its_carrier(self, name, raw, expected):
        sr = by_name(name)
        decode = sr.parse if isinstance(raw, str) else sr.coerce
        if expected is None:
            with pytest.raises(ValueError):
                decode(raw)
            return
        value = decode(raw)
        assert value == expected
        assert type(value) is type(expected)

    @pytest.mark.parametrize("name", RATIONAL)
    def test_parse_inverts_format(self, name):
        sr = by_name(name)
        for v in sr.sample_values():
            assert sr.parse(sr.format(v)) == v


# The natural order of each idempotent instance, written out over its
# carrier, with the instance's two extremes.
NATURAL_ORDERS = [
    ("boolean", {}, (False, True), lambda a, b: b or not a),
    ("tropical", {}, (INF, Fraction(0)), lambda a, b: _numeric(b) <= _numeric(a)),
    ("arctic", {}, (NEG_INF, INF), lambda a, b: _numeric(a) <= _numeric(b)),
    ("truncation", {"k": 5}, (0, 5), lambda a, b: b <= a),
    ("maxtimes", {}, (Fraction(0), Fraction(1)), lambda a, b: a <= b),
]


@pytest.mark.parametrize(
    "name,params,extremes,leq", NATURAL_ORDERS, ids=[row[0] for row in NATURAL_ORDERS]
)
def test_natural_order_of_idempotent_instances(name, params, extremes, leq):
    sr = by_name(name, **params)
    assert sr.idempotent
    values = list(sr.sample_values()) + list(extremes)
    for a in values:
        for b in values:
            assert sr.natural_leq(a, b) == leq(a, b), (a, b)
