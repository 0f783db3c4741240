"""Put this checkout's src/ on the import path after the PYTHONPATH entries:
plain pytest tests this checkout, and PYTHONPATH=<tree>/src python -m pytest
tests that tree."""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))
