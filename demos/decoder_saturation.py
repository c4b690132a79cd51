"""Counting the decoder output retrieves the emission-field QFI.

The decoder is a second two-level system driven so that the cascaded
pair (sensor -> decoder) interferes the sensor's emission into
darkness at the reference parameter.  Clicks of the combined output
then carry the full field information, up to an O(1) transient cost.

Two runs make the point and its sharp caveat:

  1. decoder detuned 1.0 away from matched, long horizon T = 150:
     the sampled Fisher information of the click record reaches the
     emission QFI (the transient cost does not grow with T),
  2. exactly matched decoder at the symmetric resonant point: an
     antiunitary symmetry makes every record probability even in
     theta, all finite-difference scores vanish identically, and the
     sampled information is exactly zero however many trajectories
     are drawn.  The information sits in the O(theta^2) click sector
     that score sampling cannot reach at theta = 0.

Takes a couple of minutes on one core.
"""

import numpy as np

from cmsense import TimeGrid, two_level_model
from cmsense.cascade import cascade_generators, fisher_from_trajectories
from cmsense.decoder import two_level_decoder
from cmsense.qfi import env_qfi

m = two_level_model(omega=1.0, delta=0.0, gamma=1.0)

# --- offset decoder, long horizon -------------------------------------
T = 150.0
grid = TimeGrid(0.0, T, 2e-3)
ie = env_qfi(m, 0.0, T, dt=2e-3).value
dec = two_level_decoder(1.0, 1.0, 1.0)  # detuning offset 1.0 from matched
fi = fisher_from_trajectories(cascade_generators(m, dec), 0.0, grid, 2000, seed=7)
print(f"T = {T:g}: emission QFI I_E = {ie:.2f}")
print(f"offset decoder counting FI = {fi.value:.2f} +- {fi.std_error:.2f}"
      f"  ({fi.value / ie:.1%} of I_E)")

# --- matched decoder at the symmetric point ---------------------------
grid20 = TimeGrid(0.0, 20.0, 2e-3)
ie20 = env_qfi(m, 0.0, 20.0, dt=2e-3).value
matched = two_level_decoder(1.0, 0.0, 1.0)
fi0 = fisher_from_trajectories(cascade_generators(m, matched), 0.0, grid20, 2000, seed=7)
fx0 = fisher_from_trajectories(cascade_generators(m), 0.0, grid20, 2000, seed=7)
print(f"\nT = 20: I_E = {ie20:.2f}")
print(f"matched decoder sampled FI  = {fi0.value:.6f} +- {fi0.std_error:.6f}")
print(f"direct counting sampled FI  = {fx0.value:.6f} +- {fx0.std_error:.6f}")
print("both identically zero: the even-likelihood symmetry of this point")
