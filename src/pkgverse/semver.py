"""Semantic versions and npm-style version ranges.

Versions follow the canonical ``MAJOR.MINOR.PATCH[-prerelease][+build]``
grammar with its usual precedence rules (numeric identifiers compare
numerically and sort below alphanumeric ones, a prerelease sorts below the
plain version, build metadata is ignored). There is one version grammar: a
range body may leave parts out or make them wildcards, and
:func:`parse_version` reads a text by the same rule and accepts it only
when it names all three parts. The range grammar is the node-semver subset
commonly found in package manifests:

* exact (``1.2.3`` / ``=1.2.3``), comparators ``>`` ``>=`` ``<`` ``<=``
* caret ``^1.2.3`` and tilde ``~1.2.3``
* wildcards ``*`` / ``x`` components (``1.2.x``) and partial versions
* hyphen ranges ``1.2.3 - 2.0.0``
* space-separated AND within a clause, ``||`` for disjunction

Every operator is written with the same bounds of its version body: ``low``
fills missing parts with 0 (``1.2`` -> ``1.2.0``) and ``span`` is the
exclusive end of what the body names (``1`` -> ``2.0.0``, ``1.2`` ->
``1.3.0``). A partial ``1.2`` or ``=1.2`` and ``~1.2`` or ``~1.2.3`` are
``>=low <span``; ``>1.2`` is ``>=span``, ``<=1.2`` is ``<span``, ``>=1.2``
and ``<1.2`` bound at ``low``; ``^`` ends at the first non-zero bump; a
hyphen range runs from the left ``low`` to the right ``span``, or to the
right version inclusive when it is complete. A wildcard major (``*``,
``x``, ``X``, ``x.x``, ``*.*``, ``X.x.x``, also with ``+build``) admits
every version after any operator, and leaves a hyphen range without an
upper bound.

A version that carries a prerelease tag only matches a range when one of
the comparators in the satisfied clause names the same major.minor.patch
triple and itself carries a prerelease tag — so ``^1.2.3-rc.1`` admits
``1.2.3-rc.2`` but a plain ``~1.2.3`` never drags in ``1.3.0-beta``.

Parsing is memoized per text: :func:`parse_version`,
:meth:`VersionRange.parse` and :meth:`VersionRange.pin` each keep the
results for the 4096 most recently used texts (a bounded
``functools.lru_cache``, keyed by class for ranges and pins), which is safe
to share because versions, comparators and ranges are frozen. Type checks
run before the memo, and failures are not kept, so a bad text raises on
every call and :func:`resolve_version_range` warns about a non-semver label
every time.

Matching compares precedence keys: a range compiles each clause once, at
construction, into ``(operator, bound key)`` pairs tested against a
version's ``_key``, plus the triples its prerelease-tagged comparators
name. :func:`resolve_version_range` keeps the greatest match in one pass
and tests only candidates whose key exceeds it, so among equal keys
(``1.0.0+a``, ``1.0.0+b``) the first one listed wins.
"""

from __future__ import annotations

import operator
import re
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import NoMatchingVersion, VersionParseError

__all__ = [
    "Version",
    "VersionRange",
    "NonSemverRelease",
    "parse_version",
    "resolve_version_range",
]

# a possibly partial version (1 / 1.2 / 1.2.x / 1.x / *) with optional tags;
# numeric parts have no leading zeros and take ASCII digits only
_NUMBER = r"0|[1-9]\d*"
_PART = rf"{_NUMBER}|[xX*]"
_PRE_IDENT = rf"(?:{_NUMBER}|\d*[a-zA-Z-][0-9a-zA-Z-]*)"
_PARTIAL_RE = re.compile(
    rf"^(?P<major>{_PART})(?:\.(?P<minor>{_PART}))?(?:\.(?P<patch>{_PART}))?"
    rf"(?:-(?P<prerelease>{_PRE_IDENT}(?:\.{_PRE_IDENT})*))?"
    r"(?:\+(?P<build>[0-9a-zA-Z-]+(?:\.[0-9a-zA-Z-]+)*))?$",
    re.ASCII,
)


class NonSemverRelease(UserWarning):
    """A release label was skipped because it is not a semantic version."""


def _identifier_key(ident: str):
    # numeric identifiers sort below alphanumeric ones
    if ident.isdigit():
        return (0, int(ident), "")
    return (1, 0, ident)


@dataclass(frozen=True, order=True)
class Version:
    """A semantic version. Its precedence key is computed once, at
    construction, and is the one field every comparison and the hash read."""

    major: int = field(compare=False)
    minor: int = field(compare=False)
    patch: int = field(compare=False)
    prerelease: tuple[str, ...] = field(default=(), compare=False)
    build: tuple[str, ...] = field(default=(), compare=False)
    _key: tuple = field(init=False, repr=False)

    def __post_init__(self):
        # build metadata is ignored in precedence
        pre = (0, tuple(map(_identifier_key, self.prerelease))) if self.prerelease else (1, ())
        object.__setattr__(self, "_key", (self.major, self.minor, self.patch, pre))

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.major, self.minor, self.patch)

    def __str__(self) -> str:
        s = f"{self.major}.{self.minor}.{self.patch}"
        if self.prerelease:
            s += "-" + ".".join(self.prerelease)
        if self.build:
            s += "+" + ".".join(self.build)
        return s


_MEMO_SIZE = 4096  # distinct texts each parse memo keeps


def parse_version(text: str) -> Version:
    """Parse a strict semantic version; rejects leading ``v`` and partial
    versions like ``1.2``."""
    if not isinstance(text, str):
        raise VersionParseError(f"not a semantic version: {text!r}")
    return _parse_version(text)


@lru_cache(maxsize=_MEMO_SIZE)
def _parse_version(text: str) -> Version:
    try:
        version, span, partial = _bounds(text.strip())
    except VersionParseError:
        span = None
    if span is None or partial:  # not a version body, a wildcard or a missing part
        raise VersionParseError(f"not a semantic version: {text!r}")
    return version


_COMPARE = {"=": operator.eq, ">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


@dataclass(frozen=True)
class _Comparator:
    op: str  # one of < <= > >= =
    version: Version

    def __str__(self) -> str:
        return f"{self.op}{self.version}" if self.op != "=" else str(self.version)


# the operator a range token starts with; "" for a bare version
_OPERATOR_RE = re.compile(r"[<>]=?|[=^~]|")
_ANY = _Comparator(">=", Version(0, 0, 0))


def _bounds(body: str) -> tuple[Version, Version | None, bool]:
    """Bounds of a possibly-partial version as ``(low, span, partial)``.

    ``low`` fills the missing parts with 0 and keeps the tags; ``span`` is
    the exclusive upper bound of what the body names (the next major when
    the minor is missing, else the next minor), or None for a wildcard
    major; ``partial`` says the patch is missing.
    """
    m = _PARTIAL_RE.match(body)
    if not m:
        raise VersionParseError(f"not a version or wildcard pattern: {body!r}")
    major, minor, patch = [
        None if part in (None, "x", "X", "*") else int(part)
        for part in m.group("major", "minor", "patch")
    ]
    if major is None and (minor is not None or patch is not None):
        raise VersionParseError(f"wildcard major with concrete tail: {body!r}")
    if minor is None and patch is not None:
        raise VersionParseError(f"wildcard minor with concrete patch: {body!r}")
    pre = tuple(m.group("prerelease").split(".")) if m.group("prerelease") else ()
    if pre and patch is None:
        raise VersionParseError(f"prerelease tag on a partial version: {body!r}")
    build = tuple(m.group("build").split(".")) if m.group("build") else ()
    low = Version(major or 0, minor or 0, patch or 0, pre, build)
    if major is None:
        return low, None, True
    span = Version(major + 1, 0, 0) if minor is None else Version(major, minor + 1, 0)
    return low, span, patch is None


def _desugar(token: str) -> list[_Comparator]:
    """Expand one range token into primitive comparators."""
    op = _OPERATOR_RE.match(token).group()
    low, span, partial = _bounds(token[len(op):])
    if span is None:
        return [_ANY]
    if op == "^":  # below the first non-zero bump
        if low.major:
            span = Version(low.major + 1, 0, 0)
        elif not (partial or low.minor):
            span = Version(0, 0, low.patch + 1)
        return [_Comparator(">=", low), _Comparator("<", span)]
    if op == "~" or partial and op in ("", "="):
        return [_Comparator(">=", low), _Comparator("<", span)]
    if not partial:
        return [_Comparator(op or "=", low)]
    if op == ">":
        return [_Comparator(">=", span)]
    if op == "<=":  # <=1.2 means <1.3.0
        return [_Comparator("<", span)]
    return [_Comparator(op, low)]  # >=1.2 and <1.2 bound at 1.2.0


_HYPHEN_RE = re.compile(r"\s+-\s+")


@dataclass(frozen=True)
class VersionRange:
    """A parsed range: a disjunction of comparator conjunctions.

    ``raw`` preserves the text as written; equality and the canonical
    string are defined over the desugared comparator structure, so
    ``parse(str(parse(s)))`` round-trips to an equal value.
    """

    clauses: tuple[tuple[_Comparator, ...], ...] = field(compare=False)
    raw: str = field(default="", compare=False)
    _key: tuple = field(init=False, repr=False)
    # per clause: its (operator, bound key) tests and the triples its
    # prerelease-tagged comparators name (the shared empty tuple if none)
    _compiled: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_key", (self.clauses, None if self.clauses else self.raw))
        object.__setattr__(self, "_compiled", tuple(
            (
                tuple((_COMPARE[c.op], c.version._key) for c in clause),
                tuple({c.version.triple for c in clause if c.version.prerelease}),
            )
            for clause in self.clauses
        ))

    @classmethod
    def pin(cls, label: str) -> "VersionRange":
        """Exact requirement for one release label, semver or not.

        Non-semver labels produce a range with no comparator clauses; such
        pins match nothing through the grammar and are resolved by literal
        label lookup instead (see the resolver).
        """
        return _pin(cls, label)

    @classmethod
    def parse(cls, text: str) -> "VersionRange":
        if not isinstance(text, str):
            raise VersionParseError(f"range must be a string, got {type(text).__name__}")
        return _parse_range(cls, text)

    def matches(self, version: Version) -> bool:
        """Pure predicate: does ``version`` satisfy this range?"""
        key = version._key
        for tests, tagged in self._compiled:
            for compare, bound in tests:
                if not compare(key, bound):
                    break
            else:
                if not version.prerelease or version.triple in tagged:
                    return True
        return False

    def __str__(self) -> str:
        if not self.clauses:
            return self.raw
        return " || ".join(" ".join(str(c) for c in clause) for clause in self.clauses)


@lru_cache(maxsize=_MEMO_SIZE)
def _pin(cls: type[VersionRange], label: str) -> VersionRange:
    try:
        exact = parse_version(label)
    except VersionParseError:
        return cls(clauses=(), raw=label)
    return cls(clauses=((_Comparator("=", exact),),), raw=label)


@lru_cache(maxsize=_MEMO_SIZE)
def _parse_range(cls: type[VersionRange], text: str) -> VersionRange:
    clauses = []
    for clause_text in text.split("||"):
        clause_text = clause_text.strip()
        parts = _HYPHEN_RE.split(clause_text)
        if len(parts) > 2:
            raise VersionParseError(f"malformed hyphen range: {clause_text!r}")
        if len(parts) == 2:
            low = _bounds(parts[0].strip())[0]
            high, span, partial = _bounds(parts[1].strip())
            comps = [_Comparator(">=", low)]
            if span is not None:
                comps.append(_Comparator("<", span) if partial else _Comparator("<=", high))
        else:
            # "> 1.2.3" and ">1.2.3" are the same comparator
            tokens = re.sub(r"([><=^~]+)\s+", r"\1", clause_text).split() or ["*"]
            comps = [c for token in tokens for c in _desugar(token)]
        clauses.append(tuple(comps))
    return cls(clauses=tuple(clauses), raw=text)


def resolve_version_range(
    rng: VersionRange | str, available: list[Version | str]
) -> Version:
    """Pick the greatest available version satisfying ``rng``.

    Release labels that are not semantic versions are skipped with a
    :class:`NonSemverRelease` warning rather than failing the whole
    resolution. Raises :class:`NoMatchingVersion` when nothing satisfies.
    """
    if isinstance(rng, str):
        rng = VersionRange.parse(rng)
    best = None
    for item in available:
        if not isinstance(item, Version):
            try:
                item = parse_version(item)
            except VersionParseError:
                warnings.warn(f"skipping non-semver release {item!r}", NonSemverRelease)
                continue
        # a key equal to the best's loses, so the first of equal keys wins
        if (best is None or item._key > best._key) and rng.matches(item):
            best = item
    if best is None:
        raise NoMatchingVersion(f"no version in {len(available)} candidates satisfies {rng}")
    return best
