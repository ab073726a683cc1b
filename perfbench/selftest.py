"""Feed every correctness check one corrupted output and see it fail.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs one round of each workload on this checkout's redmpc, requires the
checks to pass on the real outputs, then corrupts one thing at a time and
requires the check to report it. Exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import copy
import os
import sys
import tempfile

from worker import OUT, import_program


def cases_closed_loop(workload):
    def mutate(change):
        trace = copy.deepcopy(workload.outputs[0])
        change(trace)
        return trace

    def setitem(array, index, value):
        array[index] = value

    if workload.strategy == "proposed":
        yield "replayed omega", mutate(lambda t: setitem(t.x, (40, 1), t.x[40, 1] * (1 + 1e-9)))
        yield "replayed current", mutate(lambda t: setitem(t.xi, (40, 0), t.xi[40, 0] + 1e-9))
        yield "iterations per step", mutate(lambda t: setitem(t.solver_iters, 7, 2))
        yield "no convergence", mutate(lambda t: setitem(t.final_x, 0, 0.5 * t.x[0, 0]))
    else:
        yield "off the equilibrium", mutate(lambda t: setitem(t.xi, (40, 0), t.xi[40, 0] + 1e-9))
        yield "exceeds u_max", mutate(lambda t: setitem(t.u, (0, 0), 24.5))
        yield "exceeds optimal_tol", mutate(lambda t: setitem(t.pg_norm, 7, 1e-6))
        yield "steps", mutate(lambda t: setattr(t, "diverged", True))


def cases_certify(workload):
    def mutate(change):
        plan, report = workload.outputs[0]
        report = copy.deepcopy(report)
        change(report)
        return plan, report

    yield "constant lip_extra", mutate(lambda r: setattr(r.constants["lip_extra"], "value", 1.01))
    yield "fast-error decrease", mutate(lambda r: setattr(r.fast_bounds, "decrease", 0.83))
    yield "kappa", mutate(lambda r: setattr(r.kappa, "kappa", r.kappa.kappa * (1 + 1e-9)))
    yield "interconnection k5", mutate(lambda r: setattr(r.interconnection, "k5", r.interconnection.k5 * (1 + 1e-9)))
    yield "interconnection c4", mutate(lambda r: setattr(r.interconnection, "c4", r.interconnection.c4 * 1.5))
    yield "still positive definite above", mutate(lambda r: setattr(r, "delta_bar", r.delta_bar * 0.5))
    yield "not positive definite at", mutate(lambda r: setattr(r, "delta_bar", r.delta_bar * 2.0))
    yield "closed-loop decrease stage", mutate(lambda r: setattr(r, "closed_loop", None))


def cases_sweep(workload, text: str):
    header, *rows = text.splitlines()

    def edit(row_index, column, value):
        cells = rows[row_index].split(",")
        cells[header.split(",").index(column)] = value
        return "\n".join([header] + rows[:row_index] + [",".join(cells)] + rows[row_index + 1 :]) + "\n"

    yield "exited", (3, text)
    yield "header", (0, text.replace("mean_iters", "iters", 1))
    yield "rows are", (0, "\n".join([header] + rows[:-1]) + "\n")
    yield "diverged", (0, edit(1, "diverged", "1"))
    yield "mean_iters", (0, edit(0, "mean_iters", "2.0"))
    yield "no convergence", (0, edit(2, "final_err_theta", "0.5"))


def main() -> int:
    import_program()
    import checks
    from workloads import ITERS_PER_SAMPLE, OPTIMAL_TOL, U_MAX, WORKLOADS

    missed = []

    def expect(label, errors, fragment):
        caught = any(fragment in e for e in errors)
        print(f"{'caught' if caught else 'MISSED'}: {label}: {fragment}")
        if not caught:
            missed.append(f"{label}: {fragment}")

    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        for name, workload_class in WORKLOADS.items():
            workload = workload_class(seed=0, workdir=workdir)
            workload.setup()
            workload.run_round(0)
            clean = workload.check()
            print(f"{name}: real outputs: {len(clean)} check failures")
            missed += [f"{name}: real output fails: {e}" for e in clean]
            if name.startswith("closed-loop"):
                steps = workload.sim_config.steps
                for fragment, trace in cases_closed_loop(workload):
                    errors = checks.check_closed_loop(
                        trace, workload.params, workload.delta, U_MAX, workload.strategy, OPTIMAL_TOL, ITERS_PER_SAMPLE, steps
                    )
                    expect(name, errors, fragment)
            elif name == "certify":
                for fragment, (plan, report) in cases_certify(workload):
                    expect(name, checks.check_certificate(report, workload.params, plan), fragment)
            else:
                theta0, out, _ = workload.calls[0]
                with open(os.path.join(out, "comparison.csv")) as fh:
                    text = fh.read()
                for fragment, (code, corrupted) in cases_sweep(workload, text):
                    errors = checks.check_comparison(code, corrupted, workload.deltas, ITERS_PER_SAMPLE, theta0)
                    expect(name, errors, fragment)
                expect(name, checks.check_rerun(text.encode(), text.encode() + b"\n"), "differs")
            workload.close()
    if missed:
        print(f"{len(missed)} corruption(s) not caught", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
