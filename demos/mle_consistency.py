"""Maximum-likelihood estimates versus the Fisher prediction.

Draw K click records from the offset-decoder cascade, estimate the
sensor detuning record-by-record on a likelihood grid, and compare
the single-record inverse variance with the sampled Fisher
information.  Also sweeps the decoder detuning to map how fast the
retrieved information falls off with mismatch.

About two minutes on one core.
"""

import numpy as np

from cmsense import TimeGrid, two_level_model
from cmsense.cascade import cascade_generators, mismatch_sweep
from cmsense.decoder import two_level_decoder
from cmsense.estimate import interrogation_study

m = two_level_model(omega=1.0, delta=0.0, gamma=1.0)

# --- MLE study at the offset decoder ----------------------------------
gen = cascade_generators(m, two_level_decoder(1.0, 1.0, 1.0))
rows = interrogation_study(gen, 0.0, [60.0, 150.0], n_records=300, dt=2e-3,
                           seed=21, fisher_n_traj=600)
print(f"{'T':>6} {'fisher':>10} {'1/Var':>10} {'ratio':>7} {'boundary':>9}")
for r in rows:
    print(f"{r.t_end:6.1f} {r.fisher:10.3f} {r.inv_var_per_k:10.3f} "
          f"{r.inv_var_per_k / r.fisher:7.2f} {r.n_boundary:9d}")
print("single-record inverse variance approaches the Fisher value from")
print("below as T grows; the deficit is per-record MLE inefficiency at")
print("finite information, not a property of the decoder\n")

# --- information versus decoder mismatch ------------------------------
grid = TimeGrid(0.0, 20.0, 2e-3)
mis = [float(x) for x in np.arange(-10, 11, 2)]
res = mismatch_sweep(m, 0.0, mis, grid, 400, seed=13)
print(f"{'mismatch':>9} {'fisher':>9} {'err':>7}")
for dm, f in zip(res.mismatches, res.fisher):
    print(f"{dm:9.1f} {f.value:9.3f} {f.std_error:7.3f}")
print(f"full width at half maximum: {res.fwhm:.2f}")
print("note the exact zero at mismatch 0: the matched point is the")
print("symmetric configuration where sampled scores vanish identically")
