"""Recompute every pin in the table of ``pins.py``, rewrite ``pins.json``
with the values, and print each name whose value moved, appeared or went:

    python tests/record_pins.py

Record from a program whose outputs are known good, and say why pins moved.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pins  # noqa: E402  (needs the checkout's semvid on sys.path)

if __name__ == "__main__":
    old = json.loads(pins.PINS_FILE.read_text()) if pins.PINS_FILE.exists() else {}
    new = {name: row() for name, row in pins.TABLE.items()}
    moved = [name for name in {**new, **old} if old.get(name) != new.get(name)]
    for name in moved:
        print(name)
    print(f"{len(new)} pins, {len(moved)} moved")
    pins.PINS_FILE.write_text(json.dumps(new, indent=1) + "\n")
