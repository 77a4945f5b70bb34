"""Import legseq from the checkout's own src/ tree, never an installed copy."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_legseq():
    if not (SRC / "legseq" / "cli.py").is_file():
        raise SystemExit(f"error: no legseq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import legseq
    if Path(legseq.__file__).resolve().parent != SRC / "legseq":
        raise SystemExit(f"error: imported legseq from {legseq.__file__}")
