"""Compare a digest tool's output with the digests recorded for it.

``expected_digests.json`` holds, per tool, entries of a numpy version, a
Python minor version and the per-part and ``all`` digests the tool prints
under them. A run under a recorded numpy and Python must print exactly
those digests; under any other pair there is nothing to compare with. A
change that is meant to move a digest records the new value in the same
commit.
"""

import json
import platform
from pathlib import Path

import numpy as np

EXPECTED = Path(__file__).resolve().parent / "expected_digests.json"


def compare(tool, digests):
    """Print how ``digests`` ({part: hex digest}) of ``tool`` compare with the
    entry recorded for this numpy and Python; return the exit status: 1 if
    any part differs, else 0."""
    python = ".".join(platform.python_version_tuple()[:2])
    for entry in json.loads(EXPECTED.read_text())[tool]:
        if (entry["numpy"], entry["python"]) == (np.__version__, python):
            expected = entry["digests"]
            differ = [part for part in expected if digests.get(part) != expected[part]]
            if differ:
                print(f"DIFFERS from {EXPECTED.name}: {', '.join(differ)}")
                return 1
            print(f"matches {EXPECTED.name}")
            return 0
    print(f"nothing recorded for numpy {np.__version__}, python {python}: not compared")
    return 0
