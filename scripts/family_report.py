#!/usr/bin/env python3
"""Report wild pairs and the growth of family dimensions on each degree <= 6 surface."""

import argparse

from delpezzo import blow_up, format_divisor, intersect
from delpezzo.wild import family_plan, find_wild_pair, find_wild_pairs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-rank", type=int, default=12)
    args = parser.parse_args()
    for r in (3, 4, 5, 6):
        surface = blow_up(r)
        pair = find_wild_pair(surface)
        hits = find_wild_pairs(surface)
        print(
            f"{surface.name} (degree {surface.degree}): {len(hits)} ordered pairs with "
            f"C.D = {intersect(pair.C, pair.D)}"
        )
        print(f"  first pair: C = {format_divisor(pair.C)}, D = {format_divisor(pair.D)}")
        dims = []
        for n in range(2, args.max_rank + 1):
            plan = family_plan(surface, n)
            dims.append(f"{n}:{plan.param_dim}")
        print(f"  rank:dim  {'  '.join(dims)}   (slope {surface.degree} throughout)")


if __name__ == "__main__":
    main()
