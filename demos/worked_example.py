"""Walk through the worked example end to end.

U is Bern(0.2) under the null hypothesis and Bern(0.7) under the
alternative; the decision center observes nothing of its own (V is
degenerate), and both the decision-center and warden channels are BSC(0.4).
The script derives the transmission threshold, the three error exponents,
and the achievable covert Stein exponent, then classifies whether talking
to the decision center beats staying silent.

Run:  python3 demos/worked_example.py
"""

import numpy as np

import covertdht.exponents as expo
from covertdht import Dmc, validate_covert_conditions
from covertdht.probability import Alphabet, JointPmf

u = Alphabet(("0", "1"))
v = Alphabet(("c",))
xyz = Alphabet(("0", "1"))

p_uv = JointPmf(u, v, np.array([[0.8], [0.2]]))
q_uv = JointPmf(u, v, np.array([[0.3], [0.7]]))
bsc = np.array([[0.6, 0.4], [0.4, 0.6]])
dmc = Dmc(xyz, xyz, xyz, bsc, bsc, zero_symbol="0")

print("== admissibility ==")
report = validate_covert_conditions(dmc)
print(f"all conditions pass: {report.all_pass}")
print(f"partially connected: {report.partially_connected is not None}")

print("\n== transmission threshold ==")
pbar = expo.pbar_threshold(dmc, "1")
print(f"tau(x1=1)  = {pbar.tau_bits:.4f} bits")
print(f"maximizer  = {np.round(pbar.maximizer.probs, 4)}  (q* = {pbar.maximizer['1']:.4f})")
print("a source type triggers the codeword iff its divergence to Bern(0.2)")
print(f"is at least tau; the boundary sits near pi_U(1) = 0.49.")

print("\n== exponents ==")
rep = expo.achievable_exponent(p_uv, q_uv, dmc)
d = rep.as_dict()
print(f"E1 (both marginals pinned)      = {d['e1']:.4f} bits")
print(f"E2 (silent branch)              = {d['e2_by_x1']['1']:.4f} bits")
e3 = d["e3_by_x1"]["1"]
print(f"E3 (transmit branch)            = {e3['total']:.4f} bits"
      f"  (source {e3['inner']:.4f} + channel {e3['channel']:.4f})")
print(f"local test at the center alone  = {d['local']:.4f} bits")
print(f"improvement verdict             = {d['improvement']}")
print(f"achievable covert exponent      = {d['theta']:.4f} bits")
