"""
Narasimhan-Simha mass on the sphere
===================================

Total mass of the extremal measure for a weighted configuration of
points on the projective line.  With total weight exactly 2m the section
space is one-dimensional and the mass is exactly 1; every extra unit of
weight can only increase it.
"""
from curvedegen.genus0 import (generic_configuration, moebius_points,
                               ns_mass_genus0)

# Rigid case: four points of weight 1 at m = 2, so d = 4 - 2m = 0.
pts4 = generic_configuration(4)
rigid = ns_mass_genus0(pts4, (1, 1, 1, 1), 2)
print(f"d = 0 mass: {rigid.value:.6f} +/- {rigid.error:.2e}")

# One extra point: d = 1, a two-dimensional section space.  The mass
# integrates each node's maximum over a grid of coefficient lines; the
# error bar is twice the change from level 0 to level 1 of the resolution
# ladder (twice the nodes per direction and twice the coefficient phases).
pts5 = generic_configuration(5)
res = ns_mass_genus0(pts5, (1, 1, 1, 1, 1), 2)
print(f"d = 1 mass: {res.value:.6f} +/- {res.error:.2e}")

# The mass is a Moebius invariant of the configuration; relocating the
# points changes the estimate by far less than the error bars.
moved = moebius_points(pts5, (1.0, 0.1, 0.0, 1.2))
res2 = ns_mass_genus0(moved, (1, 1, 1, 1, 1), 2)
print(f"relocated:  {res2.value:.6f} +/- {res2.error:.2e}")
print(f"difference: {abs(res.value - res2.value):.2e}")
