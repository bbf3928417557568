"""Show that every workload's check rejects a wrong answer.

    python3 perfbench/check_rejects.py

Runs each workload for half a second, at least one round (seed 0),
confirms that the oracle
accepts the genuine results, then corrupts one result at a time and
confirms that the oracle reports it.  Exits 1 if a corruption slips
through.
"""

import dataclasses
import json
import sys
from fractions import Fraction
from types import SimpleNamespace

import run

run.use_checkout_sources()

import oracle  # noqa: E402  (needs the checkout on sys.path)
from algentropy import INFINITE, InertVerdict  # noqa: E402


def first(results, pred):
    return next(k for k, v in results.items() if pred(k, v))


def lattice_mutations(results):
    inert = first(results, lambda k, v: k[0] == "inert" and v.inert)
    finite = first(results, lambda k, v: k[0] == "strict" and v is not INFINITE and v > 1)
    snf = first(results, lambda k, v: k[0] == "snf" and v.invariant_factors)
    inertial = first(results, lambda k, v: k[0] == "inertial" and not v.inertial)
    group = results[snf]
    factors = list(group.invariant_factors)
    factors[-1] += 1
    return [
        ("flipped inert verdict", inert, InertVerdict(False, INFINITE)),
        ("strict index off by one", finite, results[finite] + 1),
        ("invariant factor off by one", snf,
         SimpleNamespace(invariant_factors=tuple(factors), free_rank=group.free_rank)),
        ("non-inertial map called inertial", inertial,
         dataclasses.replace(results[inertial], kind="multiplication_integer", m=1, witness=None)),
    ]


def mahler_mutations(results):
    numeric = first(results, lambda k, v: k[1] == "measure" and not v.exact)
    exact = first(results, lambda k, v: k[1] == "measure" and v.exact)
    zero = first(results, lambda k, v: k[1] == "kronecker" and v)
    return [
        ("certified value shifted by 1e-6", numeric,
         dataclasses.replace(results[numeric], value=results[numeric].value + 1e-6)),
        ("exact value shifted by 1e-6", exact,
         dataclasses.replace(results[exact], value=results[exact].value + 1e-6)),
        ("flipped Kronecker verdict", zero, False),
    ]


def rational_mutations(results):
    def edit(key, change):
        code, out, err = results[key]
        payload = json.loads(out)
        change(payload)
        return key, (code, json.dumps(payload), err)

    def shift_value(p):
        p["value"] += 1e-6

    def bump_log_of(p):
        p["log_of"] = str(Fraction(p["log_of"]) + 1)

    def disagree(p):
        p["cross_check"]["agreement"] = False

    numeric = first(results, lambda k, v: k[0] == "halg" and '"error_bound"' in v[1])
    crossed = first(results, lambda k, v: k[0] == "intrinsic" and '"cross_check"' in v[1])
    return [
        ("h_alg shifted by 1e-6", *edit(numeric, shift_value)),
        ("intrinsic log_of off by one", *edit(crossed, bump_log_of)),
        ("cross-check agreement false", *edit(crossed, disagree)),
    ]


def shift_mutations(results):
    halg = first(results, lambda k, v: k[0] == "halg")
    order = first(results, lambda k, v: k[0] == "order" and k[2] == 3)
    report = results[halg]
    return [
        ("Bernoulli entropy log(|F|+1)", halg,
         dataclasses.replace(report, log_of=report.log_of + 1)),
        ("trajectory order off by one", order, results[order] + 1),
    ]


MUTATIONS = {
    "lattice_inertia": lattice_mutations,
    "mahler_sweep": mahler_mutations,
    "rational_entropy": rational_mutations,
    "shift_entropy": shift_mutations,
}


def main():
    missed = 0
    for name, mutations in MUTATIONS.items():
        workload = run.build(name, 0)
        results = run.run_ops(workload, 0.5)["results"]
        check = oracle.CHECKS[name]
        genuine = check(workload, results)
        if genuine:
            print(f"{name}: genuine results rejected: {genuine[:3]}")
            missed += 1
            continue
        for label, key, wrong in mutations(results):
            errors = check(workload, {**results, key: wrong})
            verdict = "rejected" if errors else "MISSED"
            missed += not errors
            print(f"{name}: {label} at {key}: {verdict}"
                  + (f" ({errors[0]})" if errors else ""))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
