"""Secret-key rate versus QBER for the different post-processing routes.

Sweeps the closed-form single-pass rate and the worst-case per-basis
rate, also in closed form, over a range of observed error rates, for a few leakage levels:
no leakage, bit-encoding leakage only, and basis-selection leakage.
Prints the table and, when matplotlib is available, saves a plot.
"""

import numpy as np

from bb84_weakrand import DeviationParams, one_step_rate, two_step_rate

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    HAS_MPL = True
except ImportError:
    HAS_MPL = False

QBERS = np.arange(0.0, 0.1201, 0.005)

CONFIGS = [
    ("one-step", DeviationParams(0.0, 0.0), "no leakage"),
    ("one-step", DeviationParams(0.1, 0.0), "bit leakage 0.1"),
    ("one-step", DeviationParams(0.0, 0.1), "basis leakage 0.1"),
    ("two-step", DeviationParams(0.0, 0.1), "basis leakage 0.1"),
]


def compute_curve(method: str, dev: DeviationParams) -> list[float]:
    rate = one_step_rate if method == "one-step" else two_step_rate
    return [rate(float(q), dev).rate for q in QBERS]


def main():
    curves = {}
    for method, dev, label in CONFIGS:
        name = f"{method}, {label}"
        print(f"computing {name} ...")
        curves[name] = compute_curve(method, dev)

    header = "  QBER " + "".join(f"{name:>28}" for name in curves)
    print()
    print(header)
    print("-" * len(header))
    for i, q in enumerate(QBERS):
        row = f"{q:6.3f} " + "".join(f"{curves[name][i]:28.6f}" for name in curves)
        print(row)

    print()
    print("Takeaways:")
    print(" * Basis leakage hurts far more than bit leakage at the same level.")
    print(" * Splitting post-processing per basis recovers most of the loss:")
    one = curves["one-step, basis leakage 0.1"][4]
    two = curves["two-step, basis leakage 0.1"][4]
    print(f"   at QBER 2% the single-pass rate is {one:.4f}, the split rate {two:.4f}.")

    if HAS_MPL:
        for name, rates in curves.items():
            plt.plot(QBERS, np.maximum(rates, 0.0), label=name)
        plt.xlabel("QBER")
        plt.ylabel("secret key rate (bits/sifted pulse)")
        plt.legend()
        plt.grid(True)
        plt.tight_layout()
        plt.savefig("rate_curves.png", dpi=120)
        print("\nplot saved to rate_curves.png")
    else:
        print("\n(matplotlib not installed; skipping the plot)")


if __name__ == "__main__":
    main()
