"""Re-run items in a fresh process and print their output digests.

    python3 perfbench/replay.py REQUESTS.json OUT_DIR

REQUESTS.json lists ``{"key": ..., "argv": [...]}`` objects; the last line
of stdout maps each key to the digest of its outcome.  run.py starts this
with another PYTHONHASHSEED to catch output that depends on hash order.
"""

import json
import sys

from run import execute, import_finsite

if __name__ == "__main__":
    requests_path, out_dir = sys.argv[1:3]
    with open(requests_path, encoding="utf-8") as handle:
        requests = json.load(handle)
    main = import_finsite()
    digests = {r["key"]: execute(main, r["argv"], out_dir)[0].digest() for r in requests}
    print(json.dumps(digests))
