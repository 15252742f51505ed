#!/usr/bin/env python3
"""Shows that each correctness check of the benchmark can fail.

    python3 perfbench/selftest.py

Runs one round of ``study-small`` and of ``march-bc``, checks that both
pass, then perturbs one result at a time and checks that the expected
check refuses it.  Exits 1 if an unperturbed round fails or a perturbed
one passes.
"""

from __future__ import annotations

import copy
import sys

import run


def _find(outcome, problem, n):
    return next(r for r in outcome.marches if (r.problem, r.n) == (problem, n))


def _perturbations(wl):
    """(description, expected failure text, mutation of a copied outcome)."""
    def rec(o):
        return _find(o, wl.reported, wl.finest)

    def shift_rho(o):
        r = rec(o)
        r.state.rho_bar = r.state.rho_bar + 2.0 * wl.c_rho * r.dt

    def shift_m(o):
        r = rec(o)
        r.state.m = r.state.m + 2.0 * wl.c_m * r.dt

    def newton(o):
        r = rec(o)
        r.diagnostics[len(r.diagnostics) // 2].residual_norm = 10.0 * r.tol

    def cut_short(o):
        r = rec(o)
        r.diagnostics.pop()
        r.state.t -= r.dt

    def wrong_problem(o):
        rec(o).problem = "example2_F2" if wl.reported == "example1" else "example1"

    def reported(o):
        o.err_m *= 1.01

    cases = [
        ("density offset of 2 c_rho dt", "rho_bar error", shift_rho),
        ("momentum offset of 2 c_m dt", "momentum error", shift_m),
        ("one Newton residual at 10 tol", "Newton residual", newton),
        ("last time level dropped", "march ended", cut_short),
        ("march labelled with the other law", "problem data", wrong_problem),
        ("reported momentum error off by 1%", "reported errors", reported),
    ]
    if wl.name == "study-small":
        def rate(o):
            o.reports[0].levels[-1].rate_rho = 1.5

        def dep(o):
            levels = o.reports[1].levels
            levels[-1].err_m = 1.1 * levels[-2].err_m

        def missing(o):
            o.marches.pop(0)

        cases += [
            ("convergence rate 1.5", "rate_rho", rate),
            ("finest dependence difference grows", "did not fall", dep),
            ("one march missing", "marches, expected", missing),
        ]
    return cases


def main() -> int:
    run._import_package()
    import checks
    import workloads

    captured: list = []
    workloads.capture_harness_marches(captured)
    bad = 0
    for name in ("study-small", "march-bc"):
        wl = workloads.WORKLOADS[name]
        captured.clear()
        outcome = wl.body(wl.prepare(), captured)
        fails = checks.check_outcome(wl, outcome)
        print(f"{name}: unperturbed round {'FAILS: ' + '; '.join(fails) if fails else 'passes'}")
        bad += bool(fails)
        for desc, expect, mutate in _perturbations(wl):
            perturbed = copy.deepcopy(outcome)
            mutate(perturbed)
            fails = checks.check_outcome(wl, perturbed)
            hit = [f for f in fails if expect in f]
            print(f"  {desc:38s} {'refused: ' + hit[0] if hit else 'NOT REFUSED'}")
            bad += not hit
    print("selftest " + ("FAILED" if bad else "passed"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
