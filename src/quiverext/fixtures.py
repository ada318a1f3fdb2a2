"""Bundled example workspaces, shipped as package data."""

from __future__ import annotations

from importlib import resources

from .dsl import Workspace, cast_workspace, parse_workspace

FIXTURE_NAMES = ("f1", "f2", "f3")


def fixture_source(name: str) -> str:
    """Raw text of a bundled workspace file."""
    if name not in FIXTURE_NAMES:
        raise KeyError(f"no bundled fixture named {name!r}")
    return (resources.files("quiverext") / "data" / f"{name}.qv").read_text()


def load_fixture(name: str, field=None) -> Workspace:
    """Parse a bundled workspace, optionally recast over another field."""
    ws = parse_workspace(fixture_source(name))
    if field is not None:
        ws = cast_workspace(ws, field)
    return ws
