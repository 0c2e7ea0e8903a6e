"""One-call runner for the randomized-radius Monte Carlo estimator, which
the package CLI has no command for.

    python rrmc.py --scenario FILE --atoms JSON --trials N --seed S

prints one JSON object with the estimate's probability, trials and
successes.  The package is imported from PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import sys

from patrolgeom import randomradius
from patrolgeom.scenario import load_scenario


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rrmc")
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--atoms", required=True)
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    scenario = load_scenario(args.scenario)
    dist = randomradius.RadiusDistribution.from_atoms(json.loads(args.atoms))
    est = randomradius.mc_probability_random_radius(scenario, dist, args.trials,
                                                    args.seed)
    print(json.dumps({"probability": est.mean, "trials": est.trials,
                      "successes": est.successes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
