"""``core.Record`` against ``dataclass(frozen=True)``, its oracle.

Every library class on the base gets a twin from ``dataclasses.make_dataclass``
with the same fields (and the same ``__post_init__``, where it has one); on
hypothesis field values both must construct, compare, hash, print and refuse
assignment alike.
"""
import dataclasses
import functools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import palrich.cli  # noqa: F401  (imports every module, so every record class)
from palrich.core import Alphabet, Antimorphism, InputError, Morphism, Record, Word
from palrich.decompose import SimplePathCoding
from palrich.generators import DirectiveSequence

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))
WORDS = [Word(AB, ()), Word(AB, (0, 1)), Word(ABC, (2,)), Word(ABC, (0, 0))]

RECORDS = sorted(Record.__subclasses__(), key=lambda c: (c.__module__, c.__name__))
TWINS = {cls: dataclasses.make_dataclass(
    cls.__name__, cls._fields, frozen=True,
    namespace={"__post_init__": vars(cls)["__post_init__"]}
    if "__post_init__" in vars(cls) else None) for cls in RECORDS}

ANY = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.text("ab ", max_size=3),
    st.lists(st.integers(0, 3), max_size=4).map(tuple),
    st.sampled_from([AB, ABC, *WORDS, {}, {"a": 1}, frozenset({(0,)})]))
# fields that validating classes check get values that often pass the check
FIELD_VALUES = {
    "letters": st.lists(st.sampled_from(["a", "b", "c", "", "d e"]),
                        max_size=3).map(tuple),
    "alphabet": st.sampled_from([AB, ABC]),
    "source": st.sampled_from([AB, ABC]),
    "target": st.sampled_from([AB, ABC]),
    "pairing": st.sampled_from([(0, 1), (1, 0), (0, 1, 2), (1, 0, 2), (1, 2, 0), (0,)]),
    "symbols": st.lists(st.integers(0, 2), max_size=4).map(tuple),
    "images": st.lists(st.sampled_from(WORDS), max_size=3).map(tuple),
    "pre": st.sampled_from(WORDS),
    "period": st.sampled_from(WORDS),
}


def values_of(cls):
    return st.tuples(*(FIELD_VALUES.get(f, ANY) for f in cls._fields))


def attempt(make):
    """The value ``make`` returns, or the class of the error it raises."""
    try:
        return make()
    except Exception as exc:
        return type(exc)


def test_every_record_is_a_plain_value_class():
    assert len(RECORDS) == 18
    for cls in RECORDS:
        assert not issubclass(cls, tuple)
        assert cls._fields == tuple(f.name for f in dataclasses.fields(TWINS[cls]))
    assert hasattr(Word(AB, (0,)), "__dict__") and hasattr(AB, "__dict__")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_record_matches_frozen_dataclass(cls, data):
    twin, fields = TWINS[cls], cls._fields
    values = data.draw(values_of(cls))
    others = data.draw(st.one_of(st.just(values), values_of(cls)))
    made, expected = attempt(lambda: cls(*values)), attempt(lambda: twin(*values))
    if isinstance(made, type):   # the one __post_init__ refused the values
        assert expected is made
        assert attempt(lambda: cls(**dict(zip(fields, values)))) is made
        return
    by_keyword = cls(**dict(zip(fields, values)))
    assert by_keyword == made and not by_keyword != made
    assert repr(made) == (f"Word({made.text!r})" if cls is Word else repr(expected))
    assert attempt(lambda: hash(made)) == attempt(lambda: hash(expected))
    # TypeError on a missing, an extra and a repeated field
    for args, kwargs in ((values[:-1], {}), ((*values, None), {}),
                         (values, {"bogus": 1}), (values, {fields[0]: values[0]})):
        assert attempt(lambda: cls(*args, **kwargs)) is TypeError
        assert attempt(lambda: twin(*args, **kwargs)) is TypeError
    # == and != within the class, and against every other class
    other, other_twin = attempt(lambda: cls(*others)), attempt(lambda: twin(*others))
    if not isinstance(other, type):
        assert (made == other) is (expected == other_twin)
        assert (made != other) is (expected != other_twin)
    for rival in RECORDS:
        if rival is not cls and len(rival._fields) == len(fields):
            rival_made = attempt(lambda: rival(*values))
            assert made != rival_made and not made == rival_made
    assert made != expected and not made == expected
    for obj in (made, expected):
        for name in (fields[0], "bogus"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, fields[0])


def test_dict_fields_make_a_record_unhashable():
    coding = SimplePathCoding(*[{} if f in ("path_table", "flags") else 0
                                for f in SimplePathCoding._fields])
    with pytest.raises(TypeError):
        hash(coding)


def test_word_post_init_runs_once_per_word(monkeypatch):
    # counted as perfbench counts core.word_constructions: the class's own
    # __post_init__ rebound on the class after import
    counts = Counter()

    def counter(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["word"] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Word, "__post_init__", counter(vars(Word)["__post_init__"]))
    built = [Word(AB, (0, 1, 1)), Word(alphabet=AB, symbols=(1,)),
             Word.from_text(AB, "abba"), Word.parse("cab")]
    built.append(built[2].factor(1, 3))
    assert counts["word"] == len(built) == 5
    with pytest.raises(InputError):
        Word(AB, (2,))
    assert counts["word"] == 6


@pytest.mark.parametrize("make, message", [
    (lambda: Alphabet(()), "alphabet needs at least one letter"),
    (lambda: Alphabet(("a", "")), "bad letter token: ''"),
    (lambda: Alphabet(("a", "b c")), "bad letter token: 'b c'"),
    (lambda: Alphabet(("a", "a")), "duplicate letter: 'a'"),
    (lambda: Antimorphism(AB, (0,)), "pairing must cover the whole alphabet"),
    (lambda: Antimorphism(AB, (0, 5)), "pairing image 5 out of range"),
    (lambda: Antimorphism(ABC, (1, 2, 0)),
     "pairing is not an involution (Theta^2 = Id violated): a -> b -> c"),
    (lambda: Word(AB, (0, 2)), "symbol index 2 out of range for alphabet"),
    (lambda: Morphism(AB, ABC, (WORDS[2],)), "every source letter needs an image"),
    (lambda: Morphism(AB, ABC, (WORDS[2], WORDS[1])),
     "morphism image over wrong alphabet"),
    (lambda: DirectiveSequence(WORDS[1], WORDS[0]), "directive period must be non-empty"),
    (lambda: DirectiveSequence(WORDS[1], WORDS[2]),
     "directive pre/period over different alphabets"),
])
def test_validation_messages(make, message):
    with pytest.raises(InputError) as info:
        make()
    assert str(info.value) == message
