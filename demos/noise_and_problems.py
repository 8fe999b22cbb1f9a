"""The three test problems and the vanishing-envelope noise model.

The envelope scales gaussian noise by sigma_tilde * min{sqrt(||x||), 1},
so the oracle is exact at the origin and the noise level saturates one
unit away from it. That square-root growth is what breaks mean-squared
smoothness while keeping plain smoothness-in-expectation intact.
"""

import numpy as np

import momex.problems as prob


def main() -> None:
    ds = prob.generate_synthetic(12, seed=0)
    print(f"synthetic dataset: {ds.m} rows, {ds.n} features")

    datafit = prob.datafit_problem(ds)
    robust = prob.robust_problem(ds)
    quad = prob.quadratic_problem(12, conditioning=5.0)
    x = np.ones(12)
    for problem in (datafit, robust, quad):
        print(f"  {problem.name:<10s} f(1) = {problem.value(x):.6f}"
              f"  ||grad f(1)|| = {np.linalg.norm(problem.gradient(x)):.6f}")

    noise = prob.NoiseModel("scalar-gaussian-envelope", sigma_tilde=10.0)
    print("\nenvelope scale along a ray from the origin:")
    for r in (0.0, 0.04, 0.25, 1.0, 9.0):
        x = np.zeros(12)
        x[0] = r
        print(f"  ||x||={r:<5} scale={noise.envelope_scale(x):.3f}")

    print("\nsame sample index, same draw; the oracle is reproducible:")
    x = 0.5 * np.ones(12)
    xi1 = prob.draw_sample(noise, 12, run_seed=3, k=17)
    xi2 = prob.draw_sample(noise, 12, run_seed=3, k=17)
    g1 = prob.stochastic_grad(datafit, noise, x, xi1)
    g2 = prob.stochastic_grad(datafit, noise, x, xi2)
    print(f"  draws equal: {xi1 == xi2}, gradients equal:"
          f" {bool(np.array_equal(g1, g2))}")

    mean_err = np.linalg.norm(
        np.mean(
            [
                prob.stochastic_grad(
                    datafit, noise, x, prob.draw_sample(noise, 12, 0, k)
                )
                for k in range(20_000)
            ],
            axis=0,
        )
        - datafit.gradient(x)
    )
    print(f"  ||mean of 2e4 noisy gradients - exact gradient|| = {mean_err:.4f}")


if __name__ == "__main__":
    main()
