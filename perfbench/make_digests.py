"""Record the stdout digests of every op at the default seed.

    python3 perfbench/make_digests.py

Run from the root of a checkout whose outputs are known to be right: each
op's report must pass its oracle checks, and only ops that end ok get a
digest.  Writes perfbench/data/digests.json.
"""

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from burnside import cli

    digests = {}
    run.OUT.mkdir(exist_ok=True)
    for name in workloads.load_data()["workloads"]:
        with tempfile.TemporaryDirectory(dir=run.OUT) as inputs:
            workload = workloads.build(name, run.DEFAULT_SEED, 1, Path(inputs), run.TABLES)
            _, outcomes = run.run_pass(cli, workload, workload.passes[0])
        digests[name] = {o.key: o.digest for o in outcomes if o.status == "ok"}
        print(name, {o.status for o in outcomes}, len(digests[name]), "digests")
    path = workloads.DATA / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
