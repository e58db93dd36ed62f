"""Shared error hierarchy.

Subject-program failures (crashes, budget exhaustion) are never raised as
exceptions; they are ordinary run statuses.  Exceptions are reserved for
misuse of the tool itself or for malformed artifacts on disk.
"""

from __future__ import annotations


class ToolError(Exception):
    """Base class for errors caused by tool misuse or bad artifacts."""


class FormatError(ToolError):
    """A persisted artifact does not match the expected schema or version."""


class ConfigError(ToolError):
    """A campaign configuration is contradictory or incomplete."""


class SubjectLoadError(ToolError):
    """A subject program or seed corpus could not be loaded."""


class TypeMismatch(ToolError):
    """A unit run was handed what does not fit: the wrong number of
    arguments, a world that lacks a global, or an assigned leaf that is
    not of its kind."""
