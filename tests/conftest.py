"""Lets the tests that start `python -m ffrob.cli` import the package
from a source checkout, as the in-process tests do through pytest's
`pythonpath` setting."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    part for part in (_SRC, os.environ.get("PYTHONPATH")) if part
)
