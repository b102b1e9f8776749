"""Re-record `digests.json` from this checkout's code:

    python tests/golden/record.py

Only for a change that moves artifact bytes on purpose; name each moved
file and its reason with the change.
"""

import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

from test_golden import RECORD, host, run_chains  # noqa: E402

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        files = run_chains(Path(tmp))
    RECORD.write_text(json.dumps({"host": host(), "files": files}, indent=2, sort_keys=True)
                      + "\n")
    print(f"recorded {len(files)} files into {RECORD}")
