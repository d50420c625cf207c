"""What the optimal eavesdropper actually does at a given operating point.

Solves the worst-case per-basis scenario at 2% observed QBER with a
0.1 basis-selection leak, then prints the error allocation the search
found: the adversary concentrates errors where they feed the conjugate
basis's privacy-amplification cost more than the observed QBER.
"""

from bb84_weakrand import DeviationParams, one_step_rate, two_step_rate
from bb84_weakrand.optimizer import TwoStepProblem, solve_two_step

Q = 0.02
DEV = DeviationParams(eps0=0.0, eps1=0.1)


def main():
    problem = TwoStepProblem(q_target=Q, dev=DEV)
    result = solve_two_step(problem)
    scenario = result.argmin
    diag = result.min_rate.diagnostics

    print(f"observed QBER {Q}, bit leak {DEV.eps0}, basis leak {DEV.eps1}")
    print()
    print(f"single-pass rate : {one_step_rate(Q, DEV).rate:.6f}")
    print(f"split-pass rate  : {result.min_rate.rate:.6f}  (worst case)")
    print(f"closed form      : {two_step_rate(Q, DEV).rate:.6f}")
    print()
    print("adversarial scenario found:")
    hv = scenario.hv
    print(f"  hidden-variable weight        p(l1=0) = {hv.p_lambda1:.4f}")
    print(f"  basis probabilities           {hv.p_x1_given_l1[0]:.4f} / {hv.p_x1_given_l1[1]:.4f}")
    print(f"  bit errors (l1, basis)        e00={scenario.e_b00:.4f}  e01={scenario.e_b01:.4f}")
    print(f"                                e10={scenario.e_b10:.4f}  e11={scenario.e_b11:.4f}")
    print(f"  per-basis bit error           rec {diag['e_recbit']:.4f}, dia {diag['e_diabit']:.4f}")
    print(f"  per-basis worst phase error   rec {diag['e_recpha']:.4f}, dia {diag['e_diapha']:.4f}")
    print()
    trace = result.solver_report["best_objective_trace"]
    print(f"solver: grid best {trace[0]:.6f} refined to {trace[-1]:.6f} "
          f"over {result.solver_report['restarts']} restarts")


if __name__ == "__main__":
    main()
