"""Two checkouts' simulation speed, measured in one interpreter, in turn.

    python tests/interleaved_ab.py PARENT CHANGE \\
        --workload wide-membership --seed 1 --seconds 25 --rounds 20

PARENT and CHANGE are the roots of two checkouts of this repository. Each
one's ``src/dynbla`` is loaded under a package name of its own
(``dynbla_parent``, ``dynbla_change``), so both run in this one process.
The benchmark's scenario list for part 0 of the workload is built once,
from CHANGE's ``bench/workloads.py`` (which ``bench/run.py`` sizes the
same way), and each round runs all of it through both checkouts'
``run_scenario``, scenario by scenario: each scenario runs on both trees
back to back, the parent first in even rounds and the change first in odd
ones. A round's ratio is the parent's processor time over the change's,
which is the change's steps per second over the parent's: the script
stops with an error unless both ran the same steps to the same trace
hashes.

Both trees share the box's drift within a scenario, which separate
``bench/run.py`` runs do not, so a gain of a few percent is resolved on a
busy box too. The script prints each round, then the median ratio, its
quartiles and the rounds the change won. It is a measuring tool, not a
test: it gates nothing and leaves ``bench/`` untouched.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import time


def load(name: str, root: str):
    """The checkout at root's dynbla, imported as package name, and its runner."""
    pkg = os.path.join(root, "src", "dynbla")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.harness.runner")


def scenarios(root: str, workload: str, seed: int, seconds: float) -> list:
    """Part 0 of the workload's scenario list, as root's bench builds it."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import workloads

    return [scn for scn, _ in workloads.scenarios(workload, seed, seconds, 0)]


def timed(runner, scn) -> tuple[float, int, str]:
    """Processor seconds inside run_scenario, its steps and trace hash."""
    t0 = time.process_time()
    rep = runner.run_scenario(scn)
    return time.process_time() - t0, rep.steps, rep.hash


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--rounds", type=int, default=20)
    args = ap.parse_args(argv)

    runners = {"parent": load("dynbla_parent", args.parent), "change": load("dynbla_change", args.change)}
    items = scenarios(args.change, args.workload, args.seed, args.seconds)
    ratios = []
    for i in range(args.rounds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        spent, steps = {"parent": 0.0, "change": 0.0}, 0
        for scn in items:
            got = {name: timed(runners[name], scn) for name in order}
            if got["parent"][1:] != got["change"][1:]:
                raise SystemExit(f"round {i}, {scn['name']}: the trees ran different steps or traces")
            for name in order:
                spent[name] += got[name][0]
            steps += got["parent"][1]
        tp, tc = spent["parent"], spent["change"]
        ratios.append(tp / tc)
        print(f"round {i:2d}  {order[0]} first  parent {steps / tp:9.0f} steps/s  "
              f"change {steps / tc:9.0f} steps/s  ratio {tp / tc:.4f}", flush=True)
    q1, med, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    wins = sum(r > 1 for r in ratios)
    print(f"{args.workload}: {len(items)} scenarios, {steps} steps a round; change/parent steps_per_s "
          f"median {med:.4f}x, quartiles {q1:.4f}-{q3:.4f}, change won {wins} of {len(ratios)} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
