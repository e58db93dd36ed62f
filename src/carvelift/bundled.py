"""Access to the subject programs and seed corpora shipped in the package.

CLI arguments accept either a filesystem path or the bare name of a
bundled subject ("keycheck", with or without the .ml suffix), so the
tool is usable out of the box without copying files around.
"""

from __future__ import annotations

import importlib.resources
from pathlib import Path

from .errors import SubjectLoadError
from .inputs import SystemInput
from .lang.ast import Program
from .lang.parser import parse
from .sysgen import read_corpus


def _root():
    return importlib.resources.files("carvelift") / "subjects"


def bundled_subject_names() -> list[str]:
    return sorted(p.name[:-3] for p in _root().iterdir()
                  if p.name.endswith(".ml"))


def load_bundled_program(name: str) -> Program:
    res = _root() / f"{name}.ml"
    if not res.is_file():
        raise SubjectLoadError(
            f"no bundled subject {name!r} (have: {', '.join(bundled_subject_names())})")
    return parse(res.read_text(encoding="utf-8"))


def bundled_seeds(name: str) -> list[SystemInput]:
    d = _root() / "seeds" / name
    if not d.is_dir():
        raise SubjectLoadError(f"no bundled seeds for {name!r}")
    return read_corpus(d)


def resolve_program(spec: str) -> tuple[Program, str]:
    """A program from a path, or a bundled subject by name.

    Returns (program, display name).  Parse diagnostics propagate as-is;
    an unreadable, non-UTF-8 or unknown spec is a SubjectLoadError.
    """
    path = Path(spec)
    if path.is_file():
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise SubjectLoadError(f"cannot read {spec}: {exc}") from exc
        return parse(source), path.stem
    name = spec[:-3] if spec.endswith(".ml") else spec
    return load_bundled_program(name), name


def resolve_seeds(spec: str | None, program_name: str) -> list[SystemInput]:
    """Seeds from a corpus directory, or the bundled set for the subject."""
    if spec is None:
        return bundled_seeds(program_name)
    path = Path(spec)
    if path.is_dir():
        seeds = read_corpus(path)
        if not seeds:
            raise SubjectLoadError(f"seed directory {spec} has no .input files")
        return seeds
    return bundled_seeds(spec)
