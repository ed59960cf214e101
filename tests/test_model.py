import random

import pytest

from oonsim import (
    ANY,
    AttributeKind,
    DataMessage,
    DataNetwork,
    Eq,
    IName,
    ObjectClass,
    ObjectHost,
    PName,
    Prefix,
    Query,
    Range,
    eval_query,
    format_pname,
    iname_key,
    make_form,
    normalize_value,
    route_data,
    validate_form,
)
from oonsim.model import (
    EmptyText,
    IntegerOutOfRange,
    InvalidRange,
    U64_MAX,
    UnknownAttribute,
    UnknownClass,
    validate_query,
)

from conftest import BOOK, make_sim

TEXT = AttributeKind.TEXT
INT = AttributeKind.INTEGER


class TestNormalizeValue:
    def test_text_case_folds(self):
        assert normalize_value("Asimov", TEXT) == "asimov"

    def test_integer_zero_padded(self):
        assert normalize_value(7, INT) == "00000000000000000007"

    def test_bound_text_space_ordered(self):
        # within a bound a..z space, keys compare like the values
        assert normalize_value("Nemo", TEXT) > normalize_value("Ahab", TEXT)

    def test_empty_text_rejected(self):
        with pytest.raises(EmptyText):
            normalize_value("", TEXT)

    def test_integer_out_of_range(self):
        with pytest.raises(IntegerOutOfRange):
            normalize_value(2**64, INT)
        with pytest.raises(IntegerOutOfRange):
            normalize_value(-1, INT)

    def test_ordering_coherence_text(self):
        rng = random.Random(13)
        letters = "abcdefghijKLMNOPqrstUVwxyz"
        values = ["".join(rng.choice(letters) for _ in range(rng.randint(1, 10)))
                  for _ in range(1000)]
        by_key = sorted(values, key=lambda v: normalize_value(v, TEXT))
        by_value = sorted(values, key=str.casefold)
        assert [v.casefold() for v in by_key] == [v.casefold() for v in by_value]

    def test_ordering_coherence_integers(self):
        rng = random.Random(17)
        values = [rng.randint(0, 2**64 - 1) for _ in range(1000)]
        by_key = sorted(values, key=lambda v: normalize_value(v, INT))
        assert by_key == sorted(values)


class TestPNameCodec:
    def test_canonical_format(self):
        assert format_pname(PName(0x00A1, 0x0007)) == \
            "pn:00000000000000a1/0000000000000007"


class TestValidateForm:
    def test_complete_form_clean(self):
        form = make_form(BOOK, {"title": "foundation", "author": "asimov", "pages": 255})
        assert validate_form(form, BOOK) == []

    def test_missing_defining_attribute(self):
        form = make_form(BOOK, {"title": "foundation", "author": "asimov"})
        del form.description["author"]
        report = validate_form(form, BOOK)
        assert report == ["missing defining attribute 'author'"]

    def test_iname_description_mismatch(self):
        # checker re-run by hand on a 3-field form: one disagreement expected
        form = make_form(BOOK, {"title": "foundation", "author": "asimov", "pages": 3})
        form.description["author"] = "clarke"
        report = validate_form(form, BOOK)
        assert report == ["iname/description mismatch for 'author'"]

    def test_wrong_class_raises(self):
        form = make_form(BOOK, {"title": "t", "author": "a"})
        other = ObjectClass("film", (("title", TEXT),))
        with pytest.raises(UnknownClass):
            validate_form(form, other)

    def test_kind_mismatch(self):
        form = make_form(BOOK, {"title": "t", "author": "a", "pages": 1})
        form.description["pages"] = "lots"
        assert validate_form(form, BOOK) == ["kind mismatch for 'pages'"]


def _word(rng, n=None):
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                   for _ in range(n or rng.randint(1, 8)))


def _store(rng, size):
    forms, seen = [], set()
    while len(forms) < size:
        values = {"title": _word(rng), "author": _word(rng),
                  "pages": rng.randint(0, 1000)}
        key = (values["title"], values["author"])
        if key not in seen:
            seen.add(key)
            forms.append(make_form(BOOK, values))
    return forms


class TestEvalQuery:
    def test_eq_normalizes(self):
        form = make_form(BOOK, {"title": "x", "author": "Asimov"})
        assert eval_query(Query("book", {"author": Eq("asimov")}), form, BOOK)

    def test_range_excludes(self):
        form = make_form(BOOK, {"title": "x", "author": "a", "pages": 1970})
        assert not eval_query(Query("book", {"pages": Range(1950, 1960)}), form, BOOK)

    def test_one_query_against_two_classes_of_one_name(self):
        # intervals kept on the query must follow the class's kinds
        q = Query("c", {"v": Prefix("1")})
        text_cls = ObjectClass("c", (("v", TEXT),))
        int_cls = ObjectClass("c", (("v", AttributeKind.INTEGER),))
        assert eval_query(q, make_form(text_cls, {"v": "1x"}), text_cls)
        assert not eval_query(q, make_form(int_cls, {"v": 1}), int_cls)

    def test_prefix_count_against_scan(self):
        titles = ["foundation", "foundling", "dune"]
        forms = [make_form(BOOK, {"title": t, "author": "a"}) for t in titles]
        q = Query("book", {"title": Prefix("found")})
        # independent oracle: plain prefix scan over the raw titles
        expected = sum(1 for t in titles if t.startswith("found"))
        assert expected == 2
        assert sum(eval_query(q, f, BOOK) for f in forms) == expected

    def test_monotone_under_weakening(self):
        # replacing any predicate with "anything" never shrinks the match set
        rng = random.Random(21)
        for _ in range(20):
            forms = _store(rng, 30)
            pivot = rng.choice(forms)
            q = Query("book", {
                "title": Prefix(pivot.description["title"][:2]),
                "author": Range("a", _word(rng)) if rng.random() < 0.5 else Eq(
                    pivot.description["author"]),
            })
            matched = {id(f) for f in forms if eval_query(q, f, BOOK)}
            for name, _ in q.predicates:
                weak = Query("book", tuple(
                    (n, ANY if n == name else p) for n, p in q.predicates))
                weakened = {id(f) for f in forms if eval_query(weak, f, BOOK)}
                assert matched <= weakened

    def test_iname_values_rematch_eq_query(self):
        rng = random.Random(3)
        for form in _store(rng, 100):
            q = Query("book", tuple(
                (n, Eq(v)) for n, v in zip(BOOK.defining_names, form.iname.values)))
            assert eval_query(q, form, BOOK)

    def test_undeclared_attribute_rejected(self):
        with pytest.raises(UnknownAttribute):
            validate_query(Query("book", {"isbn": Eq("x")}), BOOK)

    def test_bad_range_rejected(self):
        with pytest.raises(InvalidRange):
            validate_query(Query("book", {"title": Range("z", "a")}), BOOK)


def test_generic_methods_always_present():
    cls = ObjectClass("thing", (("name", TEXT),), methods=("Custom",))
    for m in ("SendDataTo", "GetDataFrom", "SinkDataFrom"):
        assert m in cls.methods


def test_iname_key_is_normalized():
    assert iname_key(BOOK, IName("book", ("Foundation", "Asimov"))) == \
        ("foundation", "asimov")


def test_derived_class_maps_stay_out_of_equality_hash_and_repr():
    a, b = (ObjectClass("thing", (("name", TEXT),), (("size", INT),)) for _ in range(2))
    assert a == b and hash(a) == hash(b)
    assert a.defining_names == ("name",) and a.kind_of("size") is INT
    assert repr(a) == ("ObjectClass(class_name='thing', defining_attributes=(('name', "
                       "<AttributeKind.TEXT: 'text'>),), extra_description_attributes="
                       "(('size', <AttributeKind.INTEGER: 'integer'>),), methods="
                       "('SendDataTo', 'GetDataFrom', 'SinkDataFrom'))")


class TestPName:
    @pytest.mark.parametrize("build", [
        lambda: PName(-1, 0),
        lambda: PName(0, U64_MAX + 1),
        lambda: PName(global_id=U64_MAX + 1, local_id=0),
        lambda: PName(global_id=0, local_id=-1),
        lambda: PName._make((-1, 0)),
        lambda: PName._make([0, U64_MAX + 1]),
        lambda: PName(1, 2)._replace(global_id=-1),
        lambda: PName(1, 2)._replace(local_id=U64_MAX + 1),
    ], ids=["positional-gid", "positional-lid", "keyword-gid", "keyword-lid",
            "make-gid", "make-lid", "replace-gid", "replace-lid"])
    def test_out_of_range_part_raises_on_every_way_to_build(self, build):
        with pytest.raises(IntegerOutOfRange):
            build()

    def test_every_way_to_build_gives_the_same_name(self):
        p = PName(1, U64_MAX)
        assert p == PName(global_id=1, local_id=U64_MAX) == PName._make((1, U64_MAX))
        assert PName(0, U64_MAX)._replace(global_id=1) == p
        assert type(PName._make((1, 2))) is type(p._replace(local_id=2)) is PName

    @pytest.mark.parametrize("a,b", [(0, 0), (1, 2), (U64_MAX, 7)])
    def test_equals_and_hashes_like_its_tuple(self, a, b):
        assert PName(a, b) == (a, b)
        assert hash(PName(a, b)) == hash((a, b))

    def test_repr_and_format_unchanged(self):
        assert repr(PName(1, 2)) == "PName(global_id=1, local_id=2)"
        assert format_pname(PName(0x1F, U64_MAX)) == "pn:000000000000001f/ffffffffffffffff"

    def test_plain_tuple_keys_of_domain_hosts_still_work(self):
        net = DataNetwork(*make_sim())
        d = net.add_domain("d1")
        host = ObjectHost(PName(1, 1), "thing")
        net.add_host("d1", host)
        assert d.hosts[(1, 1)] is host and (1, 2) not in d.hosts
        d.hosts[(1, 2)] = other = ObjectHost(PName(1, 2), "thing")  # as test doubles do
        for callee, want in ((PName(1, 1), host), (PName(1, 2), other)):
            msg = DataMessage(PName(9, 9), "GetDataFrom", callee, "SinkDataFrom", "SinkDataFrom")
            assert route_data(d, msg) == ("deliver", want)
        assert net.remove_host((1, 1)) is host and set(d.hosts) == {PName(1, 2)}
