"""Regenerate data/mahler_exhaustive.json from sympy and mpmath alone.

    python3 perfbench/make_oracle.py

For every monic polynomial of degree 1..5 with lower coefficients in
[-2, 2] (the exhaustive set of the mahler_sweep workload) it stores the
log Mahler measure, from mpmath roots of each factor of sympy's
square-free decomposition, and Kronecker's verdict, from sympy's
factorisation and ``Poly.is_cyclotomic``.
"""

import itertools
import json
import os

import mpmath

from oracle import DPS, EXHAUSTIVE_ORACLE, all_factors_cyclotomic, log_measure

MAX_DEGREE = 5


def main():
    entries = {}
    for d in range(1, MAX_DEGREE + 1):
        for low in itertools.product(range(-2, 3), repeat=d):
            coeffs = tuple(low) + (1,)
            value = log_measure(coeffs)
            entries[",".join(map(str, coeffs))] = [
                mpmath.nstr(value, DPS - 5),
                all_factors_cyclotomic(coeffs),
            ]
    os.makedirs(os.path.dirname(EXHAUSTIVE_ORACLE), exist_ok=True)
    with open(EXHAUSTIVE_ORACLE, "w") as fh:
        # one polynomial per line
        fh.write(f'{{"max_degree": {MAX_DEGREE}, "digits": {DPS - 5}, "entries": {{\n')
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items()))
        fh.write("\n}}\n")


if __name__ == "__main__":
    main()
