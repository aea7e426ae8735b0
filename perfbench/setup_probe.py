"""Set-up probe: import ``repro``, build a fast-path ``Session``, route once.

Run as ``python3 perfbench/setup_probe.py D G SEED`` with ``src`` on
``PYTHONPATH``; prints ``ready`` once the first route has returned.  The
parent times the interpreter from spawn to that line.
"""

import sys

import numpy as np

from common import fast_session


def main() -> int:
    d, g, seed = (int(arg) for arg in sys.argv[1:4])
    fast_session().route(np.random.default_rng(seed).permutation(d * g), d=d, g=g)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
