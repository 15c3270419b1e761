"""
Convergence on node charts
==========================

Numerical verification of the local limit lemmas on the annular chart
{|t| < |w| < 1} of a node.  Truncated Laurent families stand in for the
pluricanonical sections of the degenerating family.
"""
import math

from curvedegen import LaurentFamily
from curvedegen.density import pairing_matrix, pseudonorm, region_tau_mass
from curvedegen.experiments import norm_asymptotics_experiment, pairing_experiments

# The section w^-2 (dw)^2 with a first-order correction.  Its pseudonorm
# grows like (2 pi log|t|^-1)^(m/2); the ratio converges to 1 like 1/L.
family = LaurentFamily.from_w_powers(2, {0: 1.0, 1: 0.3})
for L in (1e2, 1e3, 1e4):
    pn = pseudonorm([(1.0, family)], L)
    print(f"L = {L:8.0f}  ratio = {pn / (2 * math.pi * L):.8f}")

# The same sweep as a packaged experiment with a fitted decay exponent.
res = norm_asymptotics_experiment(family, logt_grid=(1e2, 1e3, 1e4))
print(res.to_columns())

# Narasimhan-Simha pairing of the two-section family {w^-2, w^-1}.
# On this pair the cross term vanishes identically by rotation symmetry,
# so the perturbed family is the interesting one: its normalized cross
# term decays like 1/L.  One sweep of pairing matrices fills both the
# diagonal-growth and the cross-term table; this prints the second.
perturbed = [family, LaurentFamily.from_w_powers(2, {1: 1.0})]
_, off = pairing_experiments(perturbed, logt_grid=(1e2, 1e3))
print(off.to_columns())

A = pairing_matrix(perturbed, 1000.0)
print("A11 / (2 pi L)^2 =", A[0, 0].real / (2 * math.pi * 1000.0) ** 2)

# Mass of the extremal (NS) measure over a piece of the skeleton edge.
# In the limit the edge carries uniform mass, so [0.2, 0.4] holds 0.2.
exact = [LaurentFamily.from_w_powers(2, {0: 1.0}),
         LaurentFamily.from_w_powers(2, {1: 1.0})]
mass = region_tau_mass(exact, 1000.0, (0.2, 0.4))
print("regional mass over [0.2, 0.4]:", mass)
