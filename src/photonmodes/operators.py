"""Conserved observables as numerical operators on covector fields.

The Poincare generators are realized by Killing fields,

    P_mu  = i d/dx^mu,
    M_munu = i (x_mu d/dx^nu - x_nu d/dx^mu),

acting on fields through the Lie derivative; brackets of these affine fields
are computed exactly and matched against the structure constants with zero
tolerance.  The helicity operator is the field-strength duality

    S F_ab = -(i/2) eps_abcd F^{cd},

with eps_{0123} = +1 and indices raised by eta = diag(+,-,-,-): this sign
block is the single place the orientation enters, and it is what makes
dual(F) = s F for the constructed modes.  Squaring the dual returns the
identity regardless of orientation.

One lie_derivative serves covectors (A_a) and rank-2 tensors (F_ab); it
is taken analytically, from one ``jet`` (value and gradient), whenever the
field exposes one and by fdiff's 4th-order finite differences otherwise.
A LieField is that derivative as a field, and its time_derivative() the Lie
field of the base's; the finite-difference checks ask for method="fd".
Residual operators (d'Alembertian, divergence) act on sampled FieldGrids.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from . import fdiff
from .charts import ETA_DIAG, LEVI_CIVITA
from .errors import AsymmetryError, StencilError
from .modes import FieldGrid, field_strength

I = 1j


# ---------------------------------------------------------------------------
# Killing fields of the Poincare algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KillingField:
    """Affine vector field xi^b(x) = const^b + lin[b, nu] x^nu.

    All generators here have exactly antisymmetric-after-lowering linear
    parts, so the Killing equation holds identically."""
    name: str
    const: np.ndarray
    lin: np.ndarray

    def value(self, t, x, y, z):
        coords = np.stack(np.broadcast_arrays(
            *(np.asarray(c, dtype=float) for c in (t, x, y, z))), axis=-1)
        return self.const + coords @ self.lin.T

    def d_xi(self):
        """D[a, b] = d_a xi^b (constant)."""
        return self.lin.T.copy()

    def __mul__(self, scalar):
        return KillingField(f"({scalar})*{self.name}", scalar * self.const, scalar * self.lin)

    __rmul__ = __mul__

    def __add__(self, other):
        return KillingField(f"{self.name}+{other.name}", self.const + other.const,
                            self.lin + other.lin)


def P_lower(mu) -> KillingField:
    c = np.zeros(4, dtype=complex)
    c[mu] = I
    return KillingField(f"P{mu}", c, np.zeros((4, 4), dtype=complex))


def P_upper(mu) -> KillingField:
    return replace(ETA_DIAG[mu] * P_lower(mu), name=f"P^{mu}")


def M_lower(mu, nu) -> KillingField:
    """M_{mu nu}: linear part lin[b, rho] = i (eta_{mu rho} d^b_nu - eta_{nu rho} d^b_mu)."""
    lin = np.zeros((4, 4), dtype=complex)
    for rho in range(4):
        lin[nu, rho] += I * (ETA_DIAG[rho] if rho == mu else 0.0)
        lin[mu, rho] -= I * (ETA_DIAG[rho] if rho == nu else 0.0)
    return KillingField(f"M{mu}{nu}", np.zeros(4, dtype=complex), lin)


def L1() -> KillingField:
    return replace(M_lower(2, 3), name="L1")


def L2() -> KillingField:
    return replace((-1.0) * M_lower(1, 3), name="L2")   # L2 = M31 = -M13


def L3() -> KillingField:
    return replace(M_lower(1, 2), name="L3")


def L_plus() -> KillingField:
    return replace(L1() + 1j * L2(), name="L+")


def L_minus() -> KillingField:
    return replace(L1() + (-1j) * L2(), name="L-")


def generator_registry():
    """The ten standard generators, keyed by name."""
    reg = {f"P{mu}": P_lower(mu) for mu in range(4)}
    for mu in range(4):
        for nu in range(mu + 1, 4):
            reg[f"M{mu}{nu}"] = M_lower(mu, nu)
    return reg


# ---------------------------------------------------------------------------
# Lie derivatives
# ---------------------------------------------------------------------------

def lie_derivative(xi: KillingField, field, t, x, y, z, h=fdiff.DEFAULT_H, method="auto"):
    """Lie derivative of a covariant tensor field of rank 1 or 2,

        (Lie_xi T)_{a..} = xi^c d_c T_{a..} + sum over slots of T_{..c..} d_slot xi^c,

    e.g. (Lie_xi A)_a = xi^c d_c A_a + A_c d_a xi^c on a covector and
    (Lie_xi F)_ab = xi^c d_c F_ab + F_cb d_a xi^c + F_ac d_b xi^c on F.  The
    rank is read from the value's shape against the point shape.

    ``field`` is either a mode-like object (with .evaluate and, for the
    analytic path, .jet) or a bare callable f(t,x,y,z) -> (..., 4[, 4]).
    method 'analytic' takes the jet, 'fd' finite differences of step h, which
    skip the axes along which xi vanishes at every point, and 'auto' the jet
    where the field has one; ValueError naming any other method.
    """
    if method not in ("auto", "analytic", "fd"):
        raise ValueError(f"unknown method {method!r}; expected 'auto', 'analytic' or 'fd'")
    evaluate = field.evaluate if hasattr(field, "evaluate") else field
    use_analytic = method == "analytic" or (method == "auto" and hasattr(field, "jet"))
    xiv = xi.value(t, x, y, z)
    dxi = xi.d_xi()
    if use_analytic:
        a, grad = field.jet(t, x, y, z)
    else:
        a = evaluate(t, x, y, z)
    slots = "ab"[:a.ndim - (xiv.ndim - 1)]   # one subscript per slot of the value
    if not use_analytic:
        grad = np.stack([
            fdiff.partial(evaluate, (t, x, y, z), mu, h) if np.any(xiv[..., mu] != 0)
            else np.zeros_like(a)
            for mu in range(4)], axis=-1 - len(slots))
    out = np.einsum(f"...c,...c{slots}->...{slots}", xiv, grad)
    for slot in slots:
        out = out + np.einsum(f"...{slots.replace(slot, 'c')},{slot}c->...{slots}", a, dxi)
    return out


class LieField:
    """Lazy Lie derivative of a field, itself evaluable: from the base's jet
    where it has one (off-axis points for a multipole), else by finite
    differences of step h."""

    def __init__(self, xi, base, h=fdiff.DEFAULT_H):
        self.xi = xi
        self.base = base
        self.h = h

    def evaluate(self, t, x, y, z):
        return lie_derivative(self.xi, self.base, t, x, y, z, h=self.h)

    def time_derivative(self):
        """Lie_xi of the base's time derivative: exact for a time-independent
        generator, which commutes with d_t."""
        return LieField(self.xi, self.base.time_derivative(), h=self.h)


def angular_momentum_squared(field, t, x, y, z, h=fdiff.DEFAULT_H):
    """L^2 A = sum_i Lie_{L_i} Lie_{L_i} A by finite differences at both levels."""
    out = None
    for gen in (L1(), L2(), L3()):
        def inner(tt, xx, yy, zz, gen=gen):
            return lie_derivative(gen, field, tt, xx, yy, zz, h=h, method="fd")
        term = lie_derivative(gen, inner, t, x, y, z, h=h, method="fd")
        out = term if out is None else out + term
    return out


# ---------------------------------------------------------------------------
# Helicity dual
# ---------------------------------------------------------------------------

def helicity_dual(F, check_antisymmetry=True):
    """S F_ab = -(i/2) eps_abcd F^{cd}; involutive: S(S F) = F."""
    F = np.asarray(F, dtype=complex)
    if check_antisymmetry:
        asym = np.abs(F + np.swapaxes(F, -1, -2)).max()
        scale = np.abs(F).max()
        if scale > 0 and asym > 1e-12 * scale:
            raise AsymmetryError(
                f"input is not antisymmetric: |F + F^T| = {asym:.3g} vs |F| = {scale:.3g}")
    f_up = ETA_DIAG[:, None] * ETA_DIAG[None, :] * F
    return -0.5j * np.einsum("abcd,...cd->...ab", LEVI_CIVITA, f_up)


class DualField:
    """x -> dual(F_mode(x)); an eigenfield of the same translations as the mode."""

    def __init__(self, mode):
        self.mode = mode

    def evaluate(self, t, x, y, z):
        return helicity_dual(field_strength(self.mode, t, x, y, z), check_antisymmetry=False)


def pauli_lubanski_residual(mode, t, x, y, z, h=fdiff.DEFAULT_H):
    """Max relative residual of S_mu F = P_mu (S F) over mu, where
    S_mu = (1/2) eps_{mu nu rho sigma} P^nu M^{rho sigma} acts on the mode's
    field strength by nested Lie derivatives."""
    def f_eval(tt, xx, yy, zz):
        return field_strength(mode, tt, xx, yy, zz)

    fval = f_eval(t, x, y, z)
    scale = np.abs(fval).max()
    dual_eval = DualField(mode)

    worst = 0.0
    for mu in range(4):
        lhs = None
        for rho in range(4):
            for sigma in range(4):
                if rho == sigma or np.abs(LEVI_CIVITA[mu, :, rho, sigma]).max() == 0:
                    continue
                m_up = ETA_DIAG[rho] * ETA_DIAG[sigma] * M_lower(rho, sigma)

                def g_eval(tt, xx, yy, zz, gen=m_up):
                    return lie_derivative(gen, f_eval, tt, xx, yy, zz, h=h)

                for nu in range(4):
                    w = LEVI_CIVITA[mu, nu, rho, sigma]
                    if w == 0.0:
                        continue
                    dG = fdiff.partial(g_eval, (t, x, y, z), nu, h)
                    term = 0.5 * w * (I * ETA_DIAG[nu]) * dG   # P^nu = i eta^{nu nu} d_nu
                    lhs = term if lhs is None else lhs + term
        rhs = lie_derivative(P_lower(mu), dual_eval, t, x, y, z, h=h)
        res = np.abs(lhs - rhs).max() / scale
        worst = max(worst, res)
    return worst


# ---------------------------------------------------------------------------
# Field-equation residuals on grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridResidual:
    name: str
    residual: float
    boundary_ring: int = fdiff.BOUNDARY_RING
    extra: dict = dataclass_field(default_factory=dict)


def dalembertian_residual(grid: FieldGrid) -> GridResidual:
    """max |Box A| over the grid interior, relative to max |A|.

    Requires >= 5 nodes on every axis; the excluded boundary ring has width
    2 per differentiated axis."""
    vals = grid.values
    for ax in range(4):
        if vals.shape[ax] < 5:
            raise StencilError(f"axis {ax} has {vals.shape[ax]} nodes; Box needs >= 5")
    names = ("t", "x", "y", "z")
    box = None
    for ax, sign in ((0, 1.0), (1, -1.0), (2, -1.0), (3, -1.0)):
        d2 = fdiff.grid_partial(vals, ax, grid.spacing(names[ax]), order=2)
        d2 = fdiff.trim_interior(d2, [a for a in range(4) if a != ax])
        box = sign * d2 if box is None else box + sign * d2
    denom = np.abs(vals).max()
    res = float(np.abs(box).max() / denom) if denom > 0 else 0.0
    return GridResidual("dalembertian", res)


def divergence_residual(grid: FieldGrid) -> GridResidual:
    """max |div A| / max |A| plus the largest temporal component.

    div A = eta^{mu nu} d_mu A_nu.  On a single-time-slice grid the d_t A_0
    term requires A_0 = 0 (checked) and is dropped."""
    vals = grid.values
    names = ("t", "x", "y", "z")
    a0_max = float(np.abs(vals[..., 0]).max())
    denom = np.abs(vals).max()
    div = None
    axes = [0, 1, 2, 3]
    if vals.shape[0] < 5:
        if denom > 0 and a0_max > 1e-12 * denom:
            raise StencilError("time axis too short for d_t A_0 and A_0 != 0")
        axes = [1, 2, 3]
    for ax in axes:
        d = fdiff.grid_partial(vals[..., ax], ax, grid.spacing(names[ax]), order=1)
        d = fdiff.trim_interior(d, [a for a in axes if a != ax])
        term = ETA_DIAG[ax] * d
        div = term if div is None else div + term
    res = float(np.abs(div).max() / denom) if denom > 0 else 0.0
    return GridResidual("divergence", res, extra={"a0_max": a0_max})


# ---------------------------------------------------------------------------
# Exact bracket algebra
# ---------------------------------------------------------------------------

def bracket(xi1: KillingField, xi2: KillingField) -> KillingField:
    """[xi1, xi2]^b = xi1^a d_a xi2^b - xi2^a d_a xi1^b, exact for affine fields."""
    c = xi2.lin @ xi1.const - xi1.lin @ xi2.const
    lin = xi2.lin @ xi1.lin - xi1.lin @ xi2.lin
    return KillingField(f"[{xi1.name},{xi2.name}]", c, lin)


def expected_bracket(name1, name2):
    """Structure constants: a {name: coefficient} combination of generators."""
    def parse(n):
        if n.startswith("P"):
            return ("P", int(n[1]))
        return ("M", int(n[1]), int(n[2]))

    def msym(mu, nu):
        # canonical name and sign for M_{mu nu}
        if mu == nu:
            return None, 0.0
        return (f"M{min(mu,nu)}{max(mu,nu)}", 1.0 if mu < nu else -1.0)

    a, b = parse(name1), parse(name2)
    out = {}

    def add(name, coeff):
        if name is not None and coeff != 0:
            out[name] = out.get(name, 0.0) + coeff

    if a[0] == "P" and b[0] == "P":
        return out
    if a[0] == "P" and b[0] == "M":
        mu = a[1]
        rho, sigma = b[1], b[2]
        # [P_mu, M_rho sigma] = i (eta_{mu rho} P_sigma - eta_{mu sigma} P_rho)
        add(f"P{sigma}", I * (ETA_DIAG[mu] if mu == rho else 0.0))
        add(f"P{rho}", -I * (ETA_DIAG[mu] if mu == sigma else 0.0))
        return out
    if a[0] == "M" and b[0] == "P":
        rev = expected_bracket(name2, name1)
        return {k: -v for k, v in rev.items()}
    mu, nu = a[1], a[2]
    rho, sigma = b[1], b[2]
    # [M_mu nu, M_rho sigma] = i (eta_{mu rho} M_{sigma nu} - eta_{mu sigma} M_{rho nu}
    #                             - eta_{nu rho} M_{sigma mu} + eta_{nu sigma} M_{rho mu})
    for eta_pair, (p, q), sign in (
        ((mu, rho), (sigma, nu), 1.0),
        ((mu, sigma), (rho, nu), -1.0),
        ((nu, rho), (sigma, mu), -1.0),
        ((nu, sigma), (rho, mu), 1.0),
    ):
        if eta_pair[0] == eta_pair[1]:
            name, s2 = msym(p, q)
            add(name, I * sign * ETA_DIAG[eta_pair[0]] * s2)
    return out


def commutator_check(name1, name2):
    """Exact comparison of [xi1, xi2] with the structure-constant prediction.

    Returns the expected combination; raises AssertionError on mismatch."""
    reg = generator_registry()
    got = bracket(reg[name1], reg[name2])
    expect = expected_bracket(name1, name2)
    c = np.zeros(4, dtype=complex)
    lin = np.zeros((4, 4), dtype=complex)
    for name, coeff in expect.items():
        gen = reg[name]
        c = c + coeff * gen.const
        lin = lin + coeff * gen.lin
    if not (np.array_equal(got.const, c) and np.array_equal(got.lin, lin)):
        raise AssertionError(
            f"bracket [{name1},{name2}] does not match the structure constants")
    return expect


def check_all_brackets():
    """All 45 distinct generator pairs, exact; returns the number checked."""
    names = list(generator_registry())
    count = 0
    for i, n1 in enumerate(names):
        for n2 in names[i + 1:]:
            commutator_check(n1, n2)
            count += 1
    return count

