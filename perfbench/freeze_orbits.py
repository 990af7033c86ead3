"""Regenerate frozen_orbits.json: for each search workload, the sorted orbit
keys (benchlib.orbit_key) of the pairs its records hit.  The search workloads
fail when their records hit another set of orbits, so run this only for a
change meant to alter what the search finds, and say why in the change.

Usage, from the repository root: python3 perfbench/freeze_orbits.py
"""

import json
import sys

from benchlib import SEARCHES, orbit_key
from run import FROZEN_ORBITS, load_cytforge


def main() -> int:
    mods = load_cytforge()
    frozen = {}
    for workload, cfg in SEARCHES.items():
        query = mods["search"].SearchQuery(
            model=mods["surfaces"].blowup_cp2(cfg["k"]), coeff_bound=cfg["bound"], filters=frozenset(cfg["filters"])
        )
        records, _ = mods["search"].search(query, threads=1)
        frozen[workload] = [list(o) for o in sorted({orbit_key(r.omega1, r.omega2) for r in records})]
        print(f"{workload}: {len(records)} records in {len(frozen[workload])} orbits", file=sys.stderr)
    FROZEN_ORBITS.write_text(json.dumps(frozen, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
