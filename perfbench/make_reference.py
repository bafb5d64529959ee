"""Write reference.json: the headline values of every single solve the
benchmark can run (ladder levels and the forced case, each epsilon in
run.EPS_SET).

    python3 perfbench/make_reference.py

The committed file holds the values of the code the benchmark was defined
on; the benchmark fails a unit whose values leave them by more than
run.REL_TOL.  Regenerate it only for a change that is meant to alter the
numbers, and say so.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

import run


def main():
    os.environ.update(run.PINNED_ENV)
    sys.path.insert(0, str(run.SRC))
    from lowmach import cli

    solves = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as work:
        for workload in ("ladder", "forced"):
            for eps in run.EPS_SET:
                seed = next(s for s in range(1000)
                            if run.plan(workload, s)[1] == eps)
                for call in run.plan(workload, seed)[0]:
                    cfg = Path(work) / "cfg.json"
                    cfg.write_text(json.dumps(call.config))
                    out = Path(work) / call.reference.replace("/", "_")
                    rc = cli.main(call.argv + ["--config", str(cfg), "--out", str(out)])
                    if rc != 0:
                        raise SystemExit(f"{call.reference}: exit code {rc}")
                    (state,) = out.glob("*/state_eps*.json")
                    values = json.loads(state.read_text())
                    solves[call.reference] = {k: values[k] for k in run.HEADLINE}
                    print(call.reference, solves[call.reference], flush=True)
    (run.HERE / "reference.json").write_text(
        json.dumps({"solves": solves}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
