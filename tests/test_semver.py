import itertools

import pytest
from hypothesis import given, strategies as st

from pkgverse import semver
from pkgverse.errors import NoMatchingVersion, VersionParseError
from pkgverse.semver import (
    NonSemverRelease,
    Version,
    VersionRange,
    parse_version,
    resolve_version_range,
)

from oracles import reference_matches, satisfying_max


class TestParseVersion:
    def test_plain(self):
        assert parse_version("1.2.3") == Version(1, 2, 3)

    def test_prerelease_and_build(self):
        v = parse_version("1.2.3-rc.1+build.5")
        assert v.prerelease == ("rc", "1")
        assert v.build == ("build", "5")

    def test_prerelease_orders_before_release(self):
        assert parse_version("1.2.3-rc.1") < parse_version("1.2.3")

    @pytest.mark.parametrize("bad", ["v1.2", "1.2", "1", "1.02.3", "1.2.3.4", "", "one.two.three"])
    def test_strict_grammar_rejects(self, bad):
        with pytest.raises(VersionParseError):
            parse_version(bad)

    def test_build_metadata_ignored_in_precedence(self):
        assert parse_version("1.0.0+a") == parse_version("1.0.0+b")

    def test_round_trip(self):
        for text in ["1.2.3", "0.0.1", "1.2.3-alpha.1", "9.8.7-rc.2+exp.sha.5114f85"]:
            assert str(parse_version(text)) == text


# the published precedence example, smallest to largest
_ORDERED = [
    "1.0.0-alpha",
    "1.0.0-alpha.1",
    "1.0.0-alpha.beta",
    "1.0.0-beta",
    "1.0.0-beta.2",
    "1.0.0-beta.11",
    "1.0.0-rc.1",
    "1.0.0",
    "1.0.1",
    "1.1.0",
    "2.0.0",
]


def test_total_order_matches_pairwise_oracle():
    versions = [parse_version(t) for t in _ORDERED]
    for (i, a), (j, b) in itertools.product(enumerate(versions), repeat=2):
        assert (a < b) == (i < j)
        assert (a == b) == (i == j)
    assert sorted(versions) == versions


_identifier = st.one_of(
    st.integers(min_value=0, max_value=30).map(str),
    st.sampled_from(["alpha", "beta", "rc", "x", "dev-1"]),
)
_version = st.builds(
    Version,
    major=st.integers(min_value=0, max_value=9),
    minor=st.integers(min_value=0, max_value=9),
    patch=st.integers(min_value=0, max_value=9),
    prerelease=st.lists(_identifier, max_size=3).map(tuple),
)


@given(a=_version, b=_version, c=_version)
def test_ordering_is_a_total_order(a, b, c):
    assert (a < b) + (a == b) + (b < a) == 1  # trichotomy
    if a < b and b < c:
        assert a < c  # transitivity


def _reference_key(v):
    # the precedence key Version rebuilt on every comparison before it kept one
    pre = (0, tuple((0, int(p), "") if p.isdigit() else (1, 0, p) for p in v.prerelease)) if v.prerelease else (1, ())
    return (v.major, v.minor, v.patch, pre)


@given(a=_version, b=_version, build=st.lists(st.sampled_from(["b", "5", "x-1"]), max_size=2).map(tuple))
def test_comparisons_and_hash_follow_the_precedence_key(a, b, build):
    b = Version(b.major, b.minor, b.patch, b.prerelease, build)
    ka, kb = _reference_key(a), _reference_key(b)
    assert (a == b, a != b, a < b, a <= b, a > b, a >= b) == (ka == kb, ka != kb, ka < kb, ka <= kb, ka > kb, ka >= kb)
    if a == b:
        assert hash(a) == hash(b)
    assert repr(b) == (f"Version(major={b.major}, minor={b.minor}, patch={b.patch}, "
                       f"prerelease={b.prerelease!r}, build={build!r})")
    assert sorted([a, b], key=_reference_key) == sorted([a, b])


@given(v=_version)
def test_string_round_trip(v):
    assert parse_version(str(v)) == v


class TestRangeGrammar:
    @pytest.mark.parametrize(
        "range_text,version,expected",
        [
            ("1.2.3", "1.2.3", True),
            ("1.2.3", "1.2.4", False),
            ("=1.2.3", "1.2.3", True),
            ("^1.2.3", "1.9.9", True),
            ("^1.2.3", "2.0.0", False),
            ("^1.2.3", "1.2.2", False),
            ("^0.2.3", "0.2.9", True),
            ("^0.2.3", "0.3.0", False),
            ("^0.0.3", "0.0.3", True),
            ("^0.0.3", "0.0.4", False),
            ("~1.2.3", "1.2.9", True),
            ("~1.2.3", "1.3.0", False),
            ("~1.2", "1.2.0", True),
            ("~1", "1.9.0", True),
            ("~1", "2.0.0", False),
            ("*", "0.0.1", True),
            ("1.2.x", "1.2.7", True),
            ("1.2.x", "1.3.0", False),
            ("1.x", "1.9.9", True),
            (">=1.2.0 <2.0.0", "1.5.0", True),
            (">=1.2.0 <2.0.0", "2.0.0", False),
            (">1.2.3", "1.2.4", True),
            ("<=1.2.3", "1.2.3", True),
            ("1.2.3 - 2.3.4", "2.3.4", True),
            ("1.2.3 - 2.3.4", "2.3.5", False),
            ("1.2.3 - 2.3", "2.3.9", True),
            ("1.2.3 - 2", "2.9.9", True),
            ("^1.0.0 || ^2.0.0", "2.1.0", True),
            ("^1.0.0 || ^2.0.0", "3.0.0", False),
        ],
    )
    def test_matching(self, range_text, version, expected):
        assert VersionRange.parse(range_text).matches(parse_version(version)) is expected

    def test_prerelease_needs_same_triple_comparator(self):
        rng = VersionRange.parse("^1.2.3-rc.1")
        assert rng.matches(parse_version("1.2.3-rc.2"))
        assert not rng.matches(parse_version("1.3.0-beta"))  # different triple
        assert rng.matches(parse_version("1.3.0"))  # plain versions unaffected
        assert not VersionRange.parse("~1.2.3").matches(parse_version("1.3.0-beta"))
        assert not VersionRange.parse("*").matches(parse_version("1.0.0-alpha"))

    def test_round_trip_canonical_string(self):
        for text in ["^1.2.3", "~0.4.0", ">=1.0.0 <2.0.0", "1.2.3 - 2.0.0", "^1.0.0 || ~2.3.0", "*"]:
            rng = VersionRange.parse(text)
            assert VersionRange.parse(str(rng)) == rng

    def test_space_after_comparator_tolerated(self):
        rng = VersionRange.parse(">= 1.2.0 < 2.0.0")
        assert rng == VersionRange.parse(">=1.2.0 <2.0.0")
        assert rng.matches(parse_version("1.5.0"))

    def test_empty_requirement_means_any(self):
        assert VersionRange.parse("").matches(parse_version("3.1.4"))

    def test_malformed_rejected(self):
        with pytest.raises(VersionParseError):
            VersionRange.parse("^1.2.3 - - 2.0.0")
        with pytest.raises(VersionParseError):
            VersionRange.parse("banana!")
        with pytest.raises(VersionParseError, match="malformed hyphen range"):
            VersionRange.parse("1 - 2 - 3")


class TestResolution:
    def test_exact(self):
        assert resolve_version_range("1.2.3", ["1.2.3"]) == Version(1, 2, 3)

    def test_caret_picks_max_in_major(self):
        assert resolve_version_range("^1.2.0", ["1.2.3", "1.3.0", "2.0.0"]) == Version(1, 3, 0)

    def test_no_match(self):
        with pytest.raises(NoMatchingVersion):
            resolve_version_range("^3.0.0", ["1.0.0", "2.0.0"])

    def test_non_semver_release_skipped_with_warning(self):
        with pytest.warns(NonSemverRelease):
            v = resolve_version_range("*", ["1.0.0", "2013-alpha-SNAPSHOT"])
        assert v == Version(1, 0, 0)

    def test_maximality_grid(self):
        ranges = [
            "*", "1.0.0", "^1.0.0", "^1.1.0", "~1.1.0", "~0.2.0", "^0.2.1",
            ">=1.1.0", ">1.0.0 <2.0.0", "<=0.2.2", "0.1.0 - 1.1.0",
            "^0.1.0 || ^2.0.0", "1.x", "0.2.x", ">=2.0.0",
        ]
        pool = [
            "0.1.0", "0.1.5", "0.2.0", "0.2.2", "0.3.0",
            "1.0.0", "1.0.5", "1.1.0", "1.1.3", "1.2.0",
            "2.0.0", "2.1.0", "3.0.0", "1.1.0-rc.1", "2.0.0-beta.2",
        ]
        versions = [parse_version(t) for t in pool]
        cases = 0
        for range_text in ranges:
            rng = VersionRange.parse(range_text)
            for size in (2, 3, 5, 7, 9, len(versions)):
                for offset in range(0, len(versions) - size + 1):
                    available = versions[offset : offset + size]
                    expected = satisfying_max(rng, available)
                    cases += 1
                    if expected is None:
                        with pytest.raises(NoMatchingVersion):
                            resolve_version_range(rng, available)
                    else:
                        resolved = resolve_version_range(rng, available)
                        assert resolved == expected
                        assert rng.matches(resolved)
                        assert resolved in available
                        assert not any(v > resolved and rng.matches(v) for v in available)
        assert cases >= 500


@st.composite
def _range_body(draw):
    """A version body from the range grammar: a partial or wildcard version,
    a prerelease tag only when all three parts are numbers, a build tag."""
    parts = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        # a number may only follow numbers; a wildcard may follow either
        if parts and parts[-1] in "xX*":
            parts.append(draw(st.sampled_from("xX*")))
        else:
            parts.append(draw(st.sampled_from(["0", "1", "2", "3", "x", "X", "*"])))
    text = ".".join(parts)
    if len(parts) == 3 and parts[-1].isdigit():
        text += draw(st.sampled_from(["", "", "-0", "-alpha", "-rc.1", "-beta.2"]))
    return text + draw(st.sampled_from(["", "", "+b", "+5.x"]))


_range_clause = st.one_of(
    st.builds("{} - {}".format, _range_body(), _range_body()),
    st.lists(
        st.builds("{}{}{}".format, st.sampled_from(["", "=", "^", "~", ">", ">=", "<", "<="]),
                  st.sampled_from(["", "", " "]), _range_body()),
        min_size=0, max_size=3,
    ).map(" ".join),
)
_grammar_range = st.lists(_range_clause, min_size=1, max_size=3).map(" || ".join)
_candidate = st.builds(
    Version,
    major=st.integers(min_value=0, max_value=4),
    minor=st.integers(min_value=0, max_value=4),
    patch=st.integers(min_value=0, max_value=4),
    prerelease=st.sampled_from([(), (), ("0",), ("alpha",), ("rc", "1"), ("beta", "2")]),
    build=st.sampled_from([(), ("a",), ("b",)]),
)


class TestCompiledMatching:
    @given(text=_grammar_range, data=st.data())
    def test_matches_and_resolution_follow_the_reference_rule(self, text, data):
        rng = VersionRange.parse(text)
        # versions at each bound's triple, tagged or not
        near = [
            Version(*c.version.triple, pre)
            for clause in rng.clauses
            for c in clause
            for pre in {c.version.prerelease, (), ("0",), ("alpha",), ("z",)}
        ]
        pool = st.one_of(_candidate, st.sampled_from(near)) if near else _candidate
        versions = data.draw(st.lists(pool, max_size=12))
        # each key twice, told apart by build, in a drawn order
        versions = data.draw(st.permutations(
            versions + [Version(*v.triple, v.prerelease, ("copy",)) for v in versions]
        ))
        for v in versions:
            assert rng.matches(v) == reference_matches(rng, v)
        expected = satisfying_max(rng, versions)
        if expected is None:
            with pytest.raises(NoMatchingVersion):
                resolve_version_range(rng, versions)
        else:
            # the first of equal keys wins, so the same object comes back
            assert resolve_version_range(rng, versions) is expected


@pytest.mark.parametrize("text", ["x.x", "*.*", "X.x.x", "x+b.2", "*+1"])
def test_wildcard_major_forms_parse_to_any(text):
    assert str(VersionRange.parse(text)) == ">=0.0.0"


@pytest.mark.parametrize("bad", ["1١.0.0", "1.1١.0", "1.0.2٣"])
def test_version_digits_are_ascii(bad):
    with pytest.raises(VersionParseError):
        parse_version(bad)


@pytest.mark.parametrize(
    "bad", ["^01.02.03", "^١.٢.٣", "01", "1.02", ">=1.2.03", "~1.2.3-01", "1.2.3-rc..1", "1.2.3+b..1", "01 - 2"]
)
def test_range_parts_follow_the_version_grammar(bad):
    with pytest.raises(VersionParseError):
        VersionRange.parse(bad)


# texts near the grammar's edges, valid and not, for both parsers
_version_text = st.builds(
    "{}.{}.{}{}{}".format,
    st.sampled_from(["0", "1", "01", "12", "x"]),
    st.sampled_from(["0", "2", "02"]),
    st.sampled_from(["0", "3", "x", ""]),
    st.sampled_from(["", "-rc.1", "-alpha.beta", "-01", "-rc..1"]),
    st.sampled_from(["", "+b.5", "+b..5"]),
)
_range_text = st.one_of(
    st.builds("{}{}".format, st.sampled_from(["", "^", "~", ">", ">=", "<", "<=", "=", "> "]), _version_text),
    st.builds("{} - {}".format, _version_text, _version_text),
    st.builds("{} || {}".format, _version_text, _version_text),
    st.text(alphabet="0123456789.^~<>=*xX -|+a", max_size=12),
)


def _parsed(parse, text):
    try:
        return repr(parse(text))
    except VersionParseError as exc:
        return exc.args


class TestParseMemo:
    @given(text=_version_text)
    def test_memoized_version_parse_equals_uncached(self, text):
        uncached = _parsed(semver._parse_version.__wrapped__, text)
        assert _parsed(parse_version, text) == uncached
        assert _parsed(parse_version, text) == uncached

    @given(text=_range_text)
    def test_memoized_range_parse_equals_uncached(self, text):
        uncached = _parsed(lambda t: semver._parse_range.__wrapped__(VersionRange, t), text)
        assert _parsed(VersionRange.parse, text) == uncached
        assert _parsed(VersionRange.parse, text) == uncached

    def test_a_text_is_parsed_once(self):
        assert parse_version("4.5.6-rc.1+b") is parse_version("4.5.6-rc.1+b")
        assert VersionRange.parse("^4.5.6 || 7.x") is VersionRange.parse("^4.5.6 || 7.x")
        assert VersionRange.pin("4.5.6-rc.1") is VersionRange.pin("4.5.6-rc.1")
        assert VersionRange.pin("2013-alpha-SNAPSHOT") is VersionRange.pin("2013-alpha-SNAPSHOT")

    def test_range_memo_is_keyed_by_class(self):
        class Pinned(VersionRange):
            pass

        assert type(VersionRange.parse("^1.2.3")) is VersionRange
        assert type(Pinned.parse("^1.2.3")) is Pinned
        assert type(VersionRange.pin("1.2.3")) is VersionRange
        assert type(Pinned.pin("1.2.3")) is Pinned
        assert type(Pinned.pin("nightly")) is Pinned

    @given(label=st.one_of(_version_text, st.sampled_from(["2013-alpha-SNAPSHOT", "", "v1.2.3"])))
    def test_memoized_pin_equals_uncached(self, label):
        uncached = semver._pin.__wrapped__(VersionRange, label)
        assert VersionRange.pin(label) == uncached
        assert repr(VersionRange.pin(label)) == repr(uncached)

    def test_bad_texts_raise_on_every_call(self):
        for _ in range(3):
            with pytest.raises(VersionParseError):
                parse_version("1.02.3")
            with pytest.raises(VersionParseError):
                VersionRange.parse("banana!")

    def test_non_semver_label_warns_on_every_call(self):
        for _ in range(3):
            with pytest.warns(NonSemverRelease):
                assert resolve_version_range("*", ["1.0.0", "2013-alpha-SNAPSHOT"]) == Version(1, 0, 0)

    def test_non_strings_raise_parse_errors(self):
        with pytest.raises(VersionParseError):
            parse_version(None)
        with pytest.raises(VersionParseError):
            VersionRange.parse(1)
        with pytest.raises(VersionParseError):
            parse_version(["1.2.3"])  # unhashable: rejected before the memo

    def test_memos_are_bounded(self):
        for memo in (semver._parse_version, semver._parse_range, semver._pin):
            assert 0 < memo.cache_info().maxsize < 100_000
