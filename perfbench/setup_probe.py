"""Cold set-up in a fresh interpreter: import the package and its CLI, then
load one config.  Prints {"import_s": ..., "config_load_s": ...}.

Usage: python3 setup_probe.py <src dir> <config file>
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import backscatter_auth  # noqa: E402
import backscatter_auth.cli  # noqa: E402

t1 = time.perf_counter()
backscatter_auth.config.load_config(sys.argv[2])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "config_load_s": t2 - t1}))
