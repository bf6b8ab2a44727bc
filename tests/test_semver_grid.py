"""The range grammar pinned over a grid of operator and body combinations.

Each group of range texts maps to the sha256 of its ``text<TAB>outcome``
lines, where the outcome is ``str(VersionRange.parse(text))`` or the name
of the error class raised. The digests were recorded before the range
desugaring was rewritten around one bounds rule. The one intended
difference is in the bare group: its 15 wildcard-major bodies with a
wildcard tail or build metadata (``x.x``, ``X.x.x``, ``*+b.2``, ...) raised
``TypeError`` then and are recorded as ``>=0.0.0``.
"""

import hashlib
import itertools

import pytest

from pkgverse.semver import VersionRange

OPERATORS = ("", "=", ">", ">=", "<", "<=", "^", "~")
BODIES = list(dict.fromkeys(
    ".".join(p for p in (major, minor, patch) if p is not None) + suffix
    for major, minor, patch, suffix in itertools.product(
        ("0", "1", "2", "x", "X", "*"),
        (None, "0", "3", "x"),
        (None, "0", "4", "x"),
        ("", "-rc.1", "+b.2", "-alpha+b"),
    )
))

DIGESTS = {
    "": "e48ccdc997360aee452dd53b9cab5c380ece2dfb560cd6b94d8de3cebe340a17",
    "=": "4ec680f3556822805e667f173bb376edfd005ebf143415248e22c34d3af6772b",
    ">": "80b5d79ae385d13d414f677b4fcb60fa41acfc6d2e6e5cc95c5fafbabc93c2f8",
    ">=": "b3d50d5e2fc9c676d6be37ccb08c83d1962da90a4e120ec389853810125cf1d7",
    "<": "6e6fb5208c2fa0c50fca460b9edb20c2c35be9b9e633c26cf5333d9ed489c0cd",
    "<=": "88142f0e59570eb461e762a49a0b6c133b0b7048931ceb6254ac3114bc8f7932",
    "^": "0acdbf8bb814fffae68761f9bbe73fd5c3ec9045992d39ec60463775ecf00284",
    "~": "60e8c5f4ad9e0f445436bfa5f05bd237e8d4e7a6568fee35aa09a7515fe2b642",
    " - ": "93f71d110dc88f5dd42421950fd7f859bd3a9d629f25d80ed59043b37732149b",
}

def outcome(text: str) -> str:
    try:
        return str(VersionRange.parse(text))
    except Exception as exc:  # the error class is part of the recorded outcome
        return type(exc).__name__


def digest(texts) -> str:
    lines = (f"{text}\t{outcome(text)}" for text in texts)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("op", OPERATORS, ids=[op or "bare" for op in OPERATORS])
def test_operator_grid(op):
    assert digest(op + body for body in BODIES) == DIGESTS[op]


def test_hyphen_grid():
    texts = (f"{left} - {right}" for left in BODIES for right in BODIES)
    assert digest(texts) == DIGESTS[" - "]

