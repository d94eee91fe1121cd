"""Put this checkout's src on sys.path for pytest, after the entries of
PYTHONPATH: so PYTHONPATH=/other/tree/src tests that tree, and without it
the tests import the package from here."""
import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent / "src"))
