"""Small bundled fixtures used by the test-suite and the demo scripts.

Everything here is deterministic: the same call always returns the same
data, so downstream assertions can be exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .contrib import Contribution
from .eventlog import unit_event, update_event, use_event
from .graph import UniverseGraph

__all__ = [
    "sample_universe",
    "sample_universe_extended",
    "sample_universe_events",
    "client_library_fixture",
    "BotAccount",
    "bot_benchmark",
]

# (name, release, time) for the hand-checkable miniature ecosystem: three
# packages where x1 is the workhorse dependency of both a and q, and q has
# a three-release update chain.
_BASE_UNITS = (
    ("x", "1", 1),
    ("a", "1", 2),
    ("q", "1", 2),
    ("q", "2", 3),
    ("a", "2", 3),
    ("q", "3", 4),
    ("x", "2", 5),
)
_BASE_USE = ((("a", "1"), ("x", "1")), (("q", "1"), ("x", "1")), (("q", "2"), ("x", "1")))
_BASE_UPDATE = (
    (("q", "1"), ("q", "2")),
    (("q", "2"), ("q", "3")),
    (("a", "1"), ("a", "2")),
    (("x", "1"), ("x", "2")),
)
# the later growth step: one new release plus its two relations
_GROWTH_UNIT = ("a", "3", 6)
_GROWTH_USE = ((("a", "3"), ("x", "2")),)
_GROWTH_UPDATE = ((("a", "2"), ("a", "3")),)


def _build(units, uses, updates) -> tuple[UniverseGraph, dict[str, int]]:
    g = UniverseGraph()
    handles: dict[str, int] = {}
    for name, release, time in units:
        handles[name + release] = g.add_unit(name, release, time)
    for (sn, sr), (dn, dr) in uses:
        g.add_use_edge(handles[sn + sr], handles[dn + dr])
    for (sn, sr), (dn, dr) in updates:
        g.add_update_edge(handles[sn + sr], handles[dn + dr])
    return g, handles


def sample_universe() -> tuple[UniverseGraph, dict[str, int]]:
    """The miniature three-package ecosystem; handles keyed like ``"q2"``."""
    return _build(_BASE_UNITS, _BASE_USE, _BASE_UPDATE)


def sample_universe_extended() -> tuple[UniverseGraph, dict[str, int]]:
    """The same ecosystem after one growth step adding release a3."""
    return _build(
        _BASE_UNITS + (_GROWTH_UNIT,),
        _BASE_USE + _GROWTH_USE,
        _BASE_UPDATE + _GROWTH_UPDATE,
    )


def sample_universe_events(extended: bool = False) -> list[tuple[str, tuple]]:
    """The same ecosystem as ``(kind, leaf values)`` records (units, then edges)."""
    units = _BASE_UNITS + ((_GROWTH_UNIT,) if extended else ())
    uses = _BASE_USE + (_GROWTH_USE if extended else ())
    updates = _BASE_UPDATE + (_GROWTH_UPDATE if extended else ())
    events = [unit_event(*u) for u in units]
    events += [use_event(src, dst) for src, dst in uses]
    events += [update_event(src, dst) for src, dst in updates]
    return events


def client_library_fixture(include_bot: bool = False):
    """A client app, two libraries, and two developers who each land work
    on both sides of one dependency edge.

    Returns ``(graph, contributions)``. Dependency structure: app uses
    parser and utils; parser uses utils. alice contributes to app and
    parser, bob to app and utils — exactly two congruent pairs. With
    ``include_bot`` a bot account additionally touches parser and utils.
    """
    g = UniverseGraph()
    utils = g.add_unit("utils", "1.0.0", 1)
    parser = g.add_unit("parser", "1.0.0", 2)
    app = g.add_unit("app", "1.0.0", 3)
    g.add_use_edge(app, parser)
    g.add_use_edge(app, utils)
    g.add_use_edge(parser, utils)
    contributions = [
        Contribution("c1", "alice", "app", "pr", 10, merged=True, title="add config loader"),
        Contribution("c2", "alice", "parser", "issue", 20, title="tokenizer mishandles tabs"),
        Contribution("c3", "bob", "app", "pr", 15, merged=True, title="speed up startup"),
        Contribution("c4", "bob", "utils", "pr", 30, merged=True, title="fix path join on win32"),
    ]
    if include_bot:
        contributions += [
            Contribution(
                "b1", "dependabot", "parser", "pr", 12, merged=True,
                title="bump utils from 0.9.0 to 1.0.0",
            ),
            Contribution(
                "b2", "dependabot", "utils", "pr", 14, merged=True,
                title="bump utils from 0.9.1 to 1.0.0",
            ),
        ]
    return g, contributions


@dataclass(frozen=True)
class BotAccount:
    """One labelled account of the bot-detection benchmark."""

    name: str
    is_bot: bool
    contributions: tuple[Contribution, ...]


_HUMAN_WORDS = (
    "parser", "cache", "index", "login", "export", "scheduler", "retry",
    "timeout", "header", "footer", "search", "upload", "stream", "proxy",
    "config", "widget", "banner", "cursor", "filter", "layout",
)
_HUMAN_VERBS = ("fix", "refactor", "document", "simplify", "test", "port", "rework")


def bot_benchmark() -> list[BotAccount]:
    """Thirty labelled accounts: ten bots, twenty humans.

    Half the bots carry a bot-style name; the other half have innocuous
    names but post template titles on a fixed cadence. Humans write
    varied titles at irregular intervals. Deterministic across calls.
    """
    accounts: list[BotAccount] = []

    named_bots = ("dependabot", "renovate-bot", "sync[bot]", "release_bot", "deploy.bot")
    behavioural_bots = ("autopatch", "nightly-sync", "pkgwatch", "relmgr", "mirrorer")
    humans = (
        "alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi",
        "ivan", "judy", "mallory", "nick", "olivia", "peggy", "quentin",
        "rupert", "sybil", "trent", "victor", "wendy",
    )

    for i, name in enumerate(named_bots):
        rng = random.Random(1000 + i)
        contribs = tuple(
            Contribution(
                id=f"{name}-{j}",
                developer=name,
                target=f"pkg{j % 4}",
                ctype="pr",
                time=50_000 + j * 3_600 + rng.randint(-60, 60),
                merged=True,
                title=f"bump dep{j % 3} from 1.{j}.0 to 1.{j + 1}.0",
            )
            for j in range(12)
        )
        accounts.append(BotAccount(name, True, contribs))

    for i, name in enumerate(behavioural_bots):
        contribs = tuple(
            Contribution(
                id=f"{name}-{j}",
                developer=name,
                target=f"pkg{j % 5}",
                ctype="pr",
                time=80_000 + j * 7_200,  # clockwork cadence
                merged=True,
                title=f"update pinned versions to snapshot {j}",
            )
            for j in range(10)
        )
        accounts.append(BotAccount(name, True, contribs))

    for i, name in enumerate(humans):
        rng = random.Random(3000 + i)
        t = 60_000
        contribs = []
        for j in range(rng.randint(3, 9)):
            t += rng.randint(1_000, 200_000)
            verb = _HUMAN_VERBS[(i + 3 * j) % len(_HUMAN_VERBS)]
            noun = _HUMAN_WORDS[(5 * i + j) % len(_HUMAN_WORDS)]
            detail = _HUMAN_WORDS[(2 * i + 7 * j + 3) % len(_HUMAN_WORDS)]
            contribs.append(
                Contribution(
                    id=f"{name}-{j}",
                    developer=name,
                    target=f"pkg{rng.randint(0, 6)}",
                    ctype=rng.choice(("pr", "issue", "discussion")),
                    time=t,
                    merged=rng.random() < 0.7,
                    title=f"{verb} {noun} {detail}",
                )
            )
        accounts.append(BotAccount(name, False, tuple(contribs)))

    return accounts
