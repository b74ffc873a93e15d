"""Regenerate attached_pin.json from the current attached-hub output.

Run from the repository root::

    PYTHONPATH=src:tests python tests/obs/data/make_attached_pin.py

Only regenerate for an intended change to what the serving front ends
report into an attached hub.
"""

from pathlib import Path

from obs.test_attached_pin import PIN, pinned_document

if __name__ == "__main__":
    PIN.write_text(pinned_document())
    print(f"wrote {Path(PIN).resolve()}")
