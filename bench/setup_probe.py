"""Time what every CLI invocation pays before it solves anything.

Run as `python3 setup_probe.py <src-dir> <channel-file>...`: imports
`secregion` from <src-dir>, parses every channel file with the CLI's
loader, and prints the seconds this took.  `run.py` starts it as a fresh
process several times and reports the median as `setup_s`.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import secregion.cli  # noqa: E402

for path in sys.argv[2:]:
    secregion.cli.load_channels(path)
print(time.perf_counter() - start)
