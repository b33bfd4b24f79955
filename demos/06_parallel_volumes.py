"""When does a volume density "agree" with a connection?

A density rho is parallel for a connection exactly when the pointwise
residual  c_i = d_i rho - rho * sum_k Gamma^k_{ik}  vanishes, and that
happens exactly when the affine divergence equals the volume divergence.
Both directions of the equivalence are shown numerically.
"""

from divkit import (
    Chart,
    Metric,
    VolumeForm,
    div_affine,
    div_volume,
    levi_civita,
    library_fields,
    parallel_residual,
    sample_points,
)

polar = Chart(("r", "th"), ((1.0, 2.5), (0.0, 1.5)))
metric = Metric.from_strings(polar, [["1", "0"], ["0", "r^2"]])
lc = levi_civita(metric)
pts = sample_points(polar, 60, seed=3)
arrays = polar.arrays(pts)


def worst_gap(op_a, op_b):
    gap = 0.0
    for _, field in library_fields(polar):
        va = op_a.apply_many(field, pts)
        vb = op_b.apply_many(field, pts)
        gap = max(gap, float(abs(va - vb).max()))
    return gap


def worst_residual(volume, conn):
    worst = 0.0
    for comp in parallel_residual(conn, volume).components:
        worst = max(worst, float(abs(comp.eval_many(arrays)).max()))
    return worst


# the riemannian density r is parallel for its own levi-civita connection
area = VolumeForm.from_string(polar, "r")
print("parallel density r:")
print("  residual      ", worst_residual(area, lc))
print("  operator gap  ", worst_gap(div_affine(lc), div_volume(area)))

# a skewed density is not parallel, and the divergences disagree
skew = VolumeForm.from_string(polar, "exp(r)")
print("skewed density exp(r):")
print("  residual      ", worst_residual(skew, lc))
print("  operator gap  ", worst_gap(div_affine(lc), div_volume(skew)))
