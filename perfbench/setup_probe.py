"""One cold start of cytforge, timed in a fresh interpreter: import the
package, build a workload's models, then make the first negative_curves and
parser calls.  Prints one JSON object of phase times in seconds.

Usage: python3 perfbench/setup_probe.py <workload>
"""

import json
import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
import cytforge  # noqa: E402
from cytforge import cli, negative_curves  # noqa: E402
from cytforge.surfaces import builtin_model  # noqa: E402

t1 = perf_counter()
sys.path.insert(0, str(HERE))
from benchlib import setup_plan  # noqa: E402

specs, argv = setup_plan(sys.argv[1])
t2 = perf_counter()
models = [builtin_model(spec) for spec in specs]
t3 = perf_counter()
for model in models:
    negative_curves(model)
t4 = perf_counter()
cli.build_parser().parse_args(argv)
t5 = perf_counter()
print(json.dumps({
    "setup_s": (t1 - t0) + (t5 - t2),
    "import_s": t1 - t0,
    "models_s": t3 - t2,
    "negative_curves_cold_s": t4 - t3,
    "parser_s": t5 - t4,
    "cytforge": cytforge.__file__,
}))
