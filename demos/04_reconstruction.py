"""From an opaque operator back to its volume form.

Given a candidate D and a reference divergence D0, the pipeline extracts
the one-form E = D - D0, checks it is well-defined and closed, integrates
it to a potential along straight segments, and rebuilds the density
exp(potential) times the reference.  Here D comes from exp(x^2 - y) dx dy
and is handed over as a blackbox; the pipeline recovers the density anyway.
"""

import numpy as np

from divkit import Chart, VolumeForm, classify, div_volume, sample_points

box = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
flat = div_volume(VolumeForm.from_string(box, "1"))
hidden = div_volume(VolumeForm.from_string(box, "exp(x^2 - y)")).as_blackbox()

result = classify(hidden, flat)
print("verdict:", result.verdict)
for name, value in result.residuals.items():
    print(f"  {name} residual {value:.3e}")

pts = sample_points(box, 6, seed=42)
truth = np.exp(pts[:, 0] ** 2 - pts[:, 1])
rebuilt = result.volume.density.many(pts)
print("rebuilt density vs exp(x^2 - y):")
for p, a, b in zip(pts, rebuilt, truth):
    print(f"  at ({p[0]: .3f}, {p[1]: .3f}): {a:.9f} vs {b:.9f}")
print("potential at the basepoint:", result.potential(box.basepoint),
      "(normalized to 0)")
