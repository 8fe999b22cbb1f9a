"""Tour of the extrapolation/momentum schedule for a few smoothness orders.

Prints the per-iteration parameters from momex.schedule, checks them
against the defining linear system with momex.verify's measurements and
its literal order-3 oracle, and shows the certified-constant plumbing.
"""

import momex.schedule as sch
import momex.verify as ver


def show_order(p: int) -> None:
    print(f"\norder p={p} (q={p - 1} extrapolations)")
    for k in (0, 10, 1000):
        params = sch.params_general(k, p)  # a one-row block
        diag = ver.validate(params)
        print(
            f"  k={k:<5d} eta={params.eta[0]:.6f}"
            f" gammas={[f'{g:.6f}' for g in params.gammas[0]]}"
            f" thetas={[f'{t:.6f}' for t in params.thetas[0]]}"
            f" residual={diag.residual:.2e}"
        )


def main() -> None:
    print("literal order-3 form vs the general closed form at k=100:")
    a = ver.params_p3(100)
    b = sch.params_general(100, 3)
    print(f"  literal order-3 form (verify oracle) thetas {tuple(a.thetas[0].tolist())}")
    print(f"  general closed form                  thetas {tuple(b.thetas[0].tolist())}")

    for p in (2, 3, 5):
        show_order(p)

    print("\nweight-sum identity at p=4, k=7:")
    params = sch.params_general(7, 4)
    (gammas,), (thetas,) = params.gammas, params.thetas
    print(f"  sum(thetas)          = {sum(thetas):.12f}")
    print(f"  product closed form  = {ver.weight_sum_closed_form(gammas):.12f}")

    print("\npotential weights grow but never more than double:")
    for k in (0, 1, 2, 3):
        print(f"  k={k} p_k={sch.potential_weight(k, 3):.6f}")

    m = sch.theorem_constant(p=3, f0_minus_flow=1.0, sigma=1.0, L1=4.0, Lp=2.0)
    k_eps = sch.iteration_threshold(3, m, epsilon=0.1)
    print(f"\ncertified constant M={m:.3f};"
          f" iterations for a 0.1-stationary point: {k_eps:.3e}")


if __name__ == "__main__":
    main()
