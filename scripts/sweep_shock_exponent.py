#!/usr/bin/env python3
"""Sweep the shock exponent and show where stepping starts to pay off.

At alpha = 1 the per-hop shocks sum to the same total as one direct jump, so
stepping buys nothing; the advantage grows with alpha. The sweep runs the same
workload under both policies for each exponent and prints the lifetime ratio.

Exit codes follow ``dvfsim sweep``: 1 for an unreadable scenario file or a
failed run, 2 for a scenario or alpha that fails the schema or validation, 64
for an unparsable --alphas list; each failure is one line on stderr.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dvfsim import DomainError, ScenarioError, TransitionPolicy, WearParams, load_scenario, simulate

DEFAULT_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "turion6.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default=str(DEFAULT_SCENARIO))
    parser.add_argument("--alphas", default="1,1.5,2,3")
    args = parser.parse_args()
    try:
        alphas = [float(text) for text in args.alphas.split(",")]
    except ValueError:
        print(f"usage error: bad --alphas {args.alphas!r}", file=sys.stderr)
        return 64
    try:
        rows = sweep(load_scenario(args.scenario), alphas)
    except ScenarioError as exc:
        print(f"invalid scenario ({exc.kind}): {'; '.join(exc.problems)}", file=sys.stderr)
        return 2
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(rows))
    return 0


def sweep(base, alphas) -> list[str]:
    """The table's lines; every alpha is run before any is printed, so a bad one prints no table."""
    rows = [f"{'alpha':>6}  {'direct_shock':>13}  {'stepped_shock':>13}  {'lifetime_ratio':>14}"]
    for alpha in alphas:
        wear = WearParams(base.spec.wear.k_shock, alpha, base.spec.wear.f_span)
        spec = dataclasses.replace(base.spec, wear=wear)
        runs = {}
        for kind in ("direct", "stepped"):
            scenario = dataclasses.replace(base, spec=spec, policy=TransitionPolicy(kind))
            runs[kind], _ = simulate(scenario)
        ratio = runs["stepped"].projected_lifetime / runs["direct"].projected_lifetime
        rows.append(
            f"{alpha:>6g}  {runs['direct'].ledger.shock_wear:>13.6g}"
            f"  {runs['stepped'].ledger.shock_wear:>13.6g}  {ratio:>14.4f}"
        )
    return rows


if __name__ == "__main__":
    sys.exit(main())
