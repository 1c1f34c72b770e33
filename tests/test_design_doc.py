"""DESIGN.md names only files that exist.

Every ``*.py`` path the document puts in backticks must resolve — against
the repository root, ``src/``, ``src/repro/``, or as the tail of a tracked
path (``multiprocess.py``, ``core/engine.py``) — so a rename or deletion
that leaves the design document pointing at nothing fails here.
"""
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PATH_IN_BACKTICKS = re.compile(r"`([^`\s*]+\.py)`")


def _python_files() -> list[str]:
    return [p.relative_to(ROOT).as_posix() for p in ROOT.rglob("*.py")
            if ".git" not in p.parts]


def _resolves(name: str, files: list[str]) -> bool:
    if any((ROOT / base / name).is_file() for base in ("", "src", "src/repro")):
        return True
    return any(f.endswith("/" + name) for f in files)


def test_every_python_path_design_md_names_exists():
    names = sorted(set(PATH_IN_BACKTICKS.findall((ROOT / "DESIGN.md").read_text())))
    assert len(names) > 40, names  # the pattern still finds the references
    files = _python_files()
    missing = [n for n in names if not _resolves(n, files)]
    assert missing == [], f"DESIGN.md names missing files: {missing}"
