"""How fast does the warden's divergence vanish?

For both schemes the warden sees a two-point mixture: with probability
delta_n the sensor sends a constant non-zero codeword, otherwise all
zeros. This script sweeps the blocklength and prints the exact mixture
divergence d_n next to the quadratic bound delta_n^2 chi^2, showing the
exponential decay that makes the schemes covert.

Run:  python3 demos/covertness_sweep.py
"""

import math

import numpy as np

import covertdht.covertness as cov
import covertdht.exponents as expo
import covertdht.simulation as sim
from covertdht import Dmc
from covertdht.probability import Alphabet, Pmf

xyz = Alphabet(("0", "1"))
bsc = np.array([[0.6, 0.4], [0.4, 0.6]])
dmc = Dmc(xyz, xyz, xyz, bsc, bsc, zero_symbol="0")
p_u = Pmf(Alphabet(("0", "1")), np.array([0.8, 0.2]))
g0, g1 = dmc.z_row("0"), dmc.z_row("1")

print("== full-block scheme (threshold-triggered codeword) ==")
pbar = expo.pbar_threshold(dmc, "1")
print(f"{'n':>6} {'delta_n':>12} {'d_n exact':>12} {'quad bound':>12}")
logs = []
scheme_b = sim.SchemeConfig(scheme="B", x1="1")
for n in range(20, 201, 20):
    delta = sim.transmit_probability(scheme_b, p_u, n, pbar)
    rep = cov.CovertnessReport(n, delta, *cov.warden_divergence(g0, g1, delta, n))
    logs.append((n, math.log2(rep.d_n_exact)))
    print(f"{n:>6} {rep.delta_n:>12.3e} {rep.d_n_exact:>12.3e} {rep.quad_bound:>12.3e}")
ns, l2 = zip(*logs)
slope = float(np.polyfit(ns, l2, 1)[0])
print(f"fitted decay of log2 d_n: {slope:.3f} per channel use")

print("\n== burst scheme (k = ceil(sqrt(n)) uses, mu = 0.05) ==")
print(f"{'n':>6} {'k':>5} {'delta_n':>12} {'d_n exact':>12} {'quad bound':>12}")
scheme_a = sim.SchemeConfig(scheme="A", mu=0.05, x_hat="1", y_star="1")
for n in (100, 400, 900, 2500, 10_000):
    k = scheme_a.k(n)  # the zero tail adds nothing: the mixture is the one at length k
    delta = sim.transmit_probability(scheme_a, p_u, n)
    rep = cov.CovertnessReport(n, delta, *cov.warden_divergence(g0, g1, delta, k))
    print(f"{n:>6} {k:>5} {rep.delta_n:>12.3e} {rep.d_n_exact:>12.3e} {rep.quad_bound:>12.3e}")
print("the burst occupies only sqrt(n) uses and fires only on atypical")
print("source blocks, so d_n collapses double-exponentially here.")
