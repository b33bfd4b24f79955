"""Integrals of divergences against compactly supported fields vanish.

For a genuine divergence the pairing  integral of D(X) * rho  over the
chart is zero whenever X dies at the boundary.  Weight-s operators with
s != 1 break the identity, which is a cheap integral test telling the
two apart without any reconstruction machinery.
"""

from divkit import (
    Chart,
    VectorField,
    VolumeForm,
    bump_field,
    div_sdensity,
    div_volume,
    grid_integral,
)

box = Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))
rho = VolumeForm.from_string(box, "exp(x^2 - y)")
op = div_volume(rho)


def pairing(operator, field, resolution=96):
    integrand = (operator.symbolic(field) * rho.density).simplify()
    return grid_integral(integrand.eval_many, box, resolution=resolution)


fields = [
    ("centered bump",
     bump_field(box, center=(0.0, 0.0), radius=0.5, direction=0)),
    ("offset bump",
     bump_field(box, center=(0.25, -0.2), radius=0.4, direction=1)),
    ("product bump",
     VectorField.from_strings(box, [
         "exp(-1/(1 - x^2)) * exp(-1/(1 - y^2))",
         "x * exp(-1/(1 - x^2)) * exp(-1/(1 - y^2))",
     ])),
]

print("true divergence:")
for label, field in fields:
    print(f"  {label:14s} {pairing(op, field): .3e}")

print("weight-1/2 operator (no vanishing promise):")
half = div_sdensity(rho, 0.5)
for label, field in fields:
    print(f"  {label:14s} {pairing(half, field): .3e}")
