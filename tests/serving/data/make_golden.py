"""Regenerate server_golden.json from the current InferenceServer output.

Run from the repository root::

    PYTHONPATH=src:tests python tests/serving/data/make_golden.py

Only regenerate for an intended model change: the file pins the server's
reports byte for byte, so a refactor of the request loop must leave it
untouched.
"""

from pathlib import Path

from serving.test_server_golden import GOLDEN, canonical_reports

if __name__ == "__main__":
    GOLDEN.write_text(canonical_reports())
    print(f"wrote {Path(GOLDEN).resolve()}")
