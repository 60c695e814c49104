import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gmalie.errors import DimensionMismatch
from gmalie.fields import GF, QQ, Field, field_from_doc, is_prime

from helpers import is_canonical_rational


def test_rational_scalars_stay_reduced():
    assert QQ.parse("2/4") == Fraction(1, 2)
    assert QQ.of(3) == Fraction(3)
    assert QQ.format(Fraction(1, 2)) == "1/2"
    assert QQ.format(Fraction(4, 2)) == 2


def test_prime_field_residues():
    f = GF(5)
    assert f.of(7) == 2
    assert f.of(-1) == 4
    assert f.of(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
    assert f.parse("1/2") == 3
    assert f.format(4) == 4


def test_characteristics():
    assert QQ.characteristic == 0
    assert GF(3).characteristic == 3
    assert GF(2).characteristic == 2  # constructible; analyses gate separately


def test_arithmetic():
    f = GF(7)
    assert f.add(5, 4) == 2
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.neg(2) == 5
    assert QQ.div(Fraction(1), Fraction(3)) == Fraction(1, 3)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        GF(5).of(Fraction(1, 5))


def test_bad_moduli_rejected():
    for bad in (0, 1, 4, 9, -3):
        with pytest.raises(ValueError):
            Field("GF", bad)
    with pytest.raises(ValueError):
        Field("GF", 2**31 + 11)


def test_large_modulus_rejected_before_primality_test(monkeypatch):
    # 2**61 - 1 is prime; trial division on it would run for minutes
    def no_trial_division(n):
        raise AssertionError(f"is_prime({n}) called for an out-of-range modulus")

    monkeypatch.setattr("gmalie.fields.is_prime", no_trial_division)
    with pytest.raises(ValueError, match="below 2\\*\\*31"):
        Field("GF", 2**61 - 1)


def test_is_prime():
    primes = [2, 3, 5, 7, 11, 97, 2**31 - 1]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in (0, 1, 4, 100, 91))


def test_identity_and_docs():
    assert GF(3) == GF(3)
    assert GF(3) != GF(5)
    assert QQ != GF(3)
    assert field_from_doc({"kind": "Q"}) == QQ
    assert field_from_doc({"kind": "GF", "p": 11}) == GF(11)
    for bad in ([3], {"p": 3}, "3", 3.0, None):
        with pytest.raises(DimensionMismatch):
            field_from_doc({"kind": "GF", "p": bad})
    with pytest.raises(ValueError, match="no modulus"):
        field_from_doc({"kind": "Q", "p": 3})
    assert QQ.to_doc() == {"kind": "Q"}
    assert GF(11).to_doc() == {"kind": "GF", "p": 11}


def test_parse_rejects_non_scalars():
    with pytest.raises(TypeError):
        QQ.parse(True)
    with pytest.raises(TypeError):
        QQ.parse(1.5)
    with pytest.raises(ValueError):
        QQ.parse("one half")


_REFUSED_STRINGS = [
    "1.5", "0.5/2", "1e5", "1E5", "1e999999999", "1/2e3", "inf", "nan", " 1", "1 ",
    "1\n", "1 /2", "1_000", "1/1_0", "\u0661", "1/\u0662", "\uff11", "", "+", "-",
    "1/", "/2", "1/-2", "--1", "0x10", "one half",
]


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
@pytest.mark.parametrize("text", _REFUSED_STRINGS)
def test_parse_accepts_only_signed_digit_fractions(field, text):
    # the grammar is [+-]?[0-9]+(/[0-9]+)?, ASCII digits only; everything
    # else fails the way "one half" always has
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        field.parse(text)


def test_parse_keeps_the_documented_forms():
    assert QQ.parse("-3") == Fraction(-3)
    assert QQ.parse("+4/6") == Fraction(2, 3)
    assert QQ.parse("007/014") == Fraction(1, 2)
    assert GF(5).parse("-1/2") == 2
    with pytest.raises(ZeroDivisionError):
        QQ.parse("1/0")


def test_parse_refuses_an_exponent_at_once():
    started = time.perf_counter()
    with pytest.raises(ValueError):
        QQ.parse("1e999999999")
    assert time.perf_counter() - started < 0.1


_RATIONALS = st.one_of(
    st.integers(-(2**40), 2**40),
    st.booleans(),
    st.fractions(max_denominator=12),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4])),
)


@settings(max_examples=300, deadline=None)
@given(a=_RATIONALS, b=_RATIONALS)
def test_rational_operations_return_canonical_scalars(a, b):
    f = QQ
    x, y = f.of(a), f.of(b)
    assert (x, y) == (a, b)
    text = f"{Fraction(a).numerator}/{Fraction(a).denominator}"
    found = [x, y, f.parse(text), f.parse(int(b)), *f.vector([a, b]), f.zero, f.one]
    found += [f.add(x, y), f.sub(x, y), f.mul(x, y), f.neg(x)]
    if y:
        found += [f.inv(y), f.div(x, y)]
    assert all(map(is_canonical_rational, found)), [(type(v), v) for v in found]
    assert f.format(x) == (x if type(x) is int else f"{x.numerator}/{x.denominator}")


def test_rational_inverse_is_exact():
    assert QQ.inv(3) == Fraction(1, 3)
    assert type(QQ.inv(3)) is Fraction
    assert type(QQ.inv(Fraction(2, 3))) is Fraction
    assert QQ.div(1, 3) == Fraction(1, 3)
    assert type(QQ.div(1, 3)) is Fraction
    assert type(QQ.inv(Fraction(-1, 3))) is int and QQ.inv(Fraction(-1, 3)) == -3
    assert type(QQ.div(Fraction(3, 2), Fraction(1, 2))) is int
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


_FIELDS = (GF(3), GF(5), GF(2**31 - 1), QQ)

# every kind of entry ``of`` sees: canonical residues, negative and large
# ints, bools, Fractions (some with denominators the small primes divide),
# and values it refuses
_SCALARS = st.one_of(
    st.integers(0, 4),
    st.integers(-(2**40), 2**40),
    st.booleans(),
    st.fractions(max_denominator=30),
    st.sampled_from([Fraction(1, 3), Fraction(2, 5), Fraction(-7, 9), Fraction(0)]),
    st.floats(allow_nan=False),
    st.text(max_size=2),
)


def _outcome(fn):
    try:
        return "value", fn()
    except Exception as exc:  # noqa: BLE001 - the exception type is compared
        return "raises", type(exc)


@settings(max_examples=400, deadline=None)
@given(
    field=st.sampled_from(_FIELDS),
    values=st.one_of(
        st.lists(st.integers(0, 2), max_size=6),
        st.lists(st.integers(), max_size=6),
        st.lists(st.fractions(), max_size=6),
        st.lists(_SCALARS, max_size=6),
    ),
)
def test_vector_agrees_with_of_entry_by_entry(field, values):
    expected = _outcome(lambda: tuple(field.of(x) for x in values))
    found = _outcome(lambda: field.vector(values))
    assert found == expected
    if found[0] == "value":
        assert type(found[1]) is tuple
        assert [type(x) for x in found[1]] == [type(x) for x in expected[1]]
    # a generator is read once, like a list
    assert _outcome(lambda: field.vector(iter(values))) == expected


def test_vector_returns_canonical_input_as_it_is():
    row = (0, 1, 2)
    assert GF(3).vector(row) is row
    row = (Fraction(1, 2), 0)
    assert QQ.vector(row) is row
    found = QQ.vector((Fraction(1, 2), Fraction(2)))
    assert found == (Fraction(1, 2), 2) and type(found[1]) is int
    assert GF(3).vector(()) == ()
    assert GF(3).vector([3, -1, 2]) == (0, 2, 2)
    with pytest.raises(ZeroDivisionError):
        GF(3).vector([1, Fraction(1, 3)])
    with pytest.raises(TypeError):
        QQ.vector([Fraction(1), 0.5])
