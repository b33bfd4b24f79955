"""Four ways to build a divergence, and where they agree.

On radial-angular coordinates the metric divergence, the divergence of the
Riemannian volume sqrt(det g) dx, and the Levi-Civita affine divergence are
the same operator; the expressions differ but the values do not.
"""

import numpy as np

from divkit import (
    Chart,
    Expr,
    Metric,
    VectorField,
    VolumeForm,
    div_affine,
    div_metric,
    div_sdensity,
    div_volume,
    levi_civita,
    sample_points,
)

polar = Chart(("r", "th"), ((1.0, 2.5), (0.0, 1.5)))
metric = Metric.from_strings(polar, [["1", "0"], ["0", "r^2"]])

radial = VectorField.from_strings(polar, ["1", "0"])
from_metric = div_metric(metric)
print("metric divergence of the radial field:", from_metric.symbolic(radial))
print("value at r=2.0:", from_metric.apply(radial, (2.0, 0.7)), "(expect 1/2)")

root = Expr("sqrt", (metric.det(),)).simplify()
from_volume = div_volume(VolumeForm(polar, root))
from_affine = div_affine(levi_civita(metric))

pts = sample_points(polar, 50)
gap1 = np.abs(from_metric.apply_many(radial, pts)
              - from_volume.apply_many(radial, pts)).max()
gap2 = np.abs(from_affine.apply_many(radial, pts)
              - from_metric.apply_many(radial, pts)).max()
print(f"metric vs volume route:  max gap {gap1:.2e}")
print(f"affine vs metric route:  max gap {gap2:.2e}")

# the weighted variant trades the flat term against the density term
box = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
weighted = VolumeForm.from_string(box, "exp(x^2 - y)")
dilation = VectorField.from_strings(box, ["x", "y"])
for s in (1.0, 0.5, 0.0):
    op = div_sdensity(weighted, s)
    print(f"s={s}: D(dilation) at (0.5, 0.25) =",
          op.apply(dilation, (0.5, 0.25)))
