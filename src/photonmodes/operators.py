"""Conserved observables as numerical operators on covector fields.

The Poincare generators are realized by Killing fields,

    P_mu  = i d/dx^mu,
    M_munu = i (x_mu d/dx^nu - x_nu d/dx^mu),

acting on fields through the Lie derivative.  A KillingField is a bare
affine map (const, lin), a generator is named by its index tuple (mu,) or
(mu, nu), and the brackets of these fields are computed exactly and matched
against the structure constants (one formula, expected_bracket) with zero
tolerance.  The helicity operator is the field-strength duality

    S F_ab = -(i/2) eps_abcd F^{cd},

with eps_{0123} = +1 and indices raised by eta = diag(+,-,-,-): this sign
block is the single place the orientation enters, and it is what makes
dual(F) = s F for the constructed modes.  Squaring the dual returns the
identity regardless of orientation.

One lie_derivative serves covectors (A_a) and rank-2 tensors (F_ab); it
is taken analytically, from one ``jet`` (value and gradient), whenever the
field exposes one and by fdiff's 4th-order finite differences otherwise.
A LieField is that derivative as a field; its time_derivative() adds the
Lie derivative along the commutator [d_t, xi], nonzero for the boosts.  The
finite-difference checks ask for method="fd".
Residual operators (d'Alembertian, divergence) act on sampled FieldGrids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fdiff
from .charts import ETA_DIAG, LEVI_CIVITA
from .errors import AsymmetryError, StencilError
from .modes import FieldGrid, Superposition, field_strength

I = 1j


# ---------------------------------------------------------------------------
# Killing fields of the Poincare algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KillingField:
    """Affine vector field xi^b(x) = const^b + lin[b, nu] x^nu.

    All generators here have exactly antisymmetric-after-lowering linear
    parts, so the Killing equation holds identically."""
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
        return KillingField(scalar * self.const, scalar * self.lin)

    __rmul__ = __mul__

    def __add__(self, other):
        return KillingField(self.const + other.const, self.lin + other.lin)

    def __sub__(self, other):
        return self + (-1.0) * other


def P_lower(mu) -> KillingField:
    c = np.zeros(4, dtype=complex)
    c[mu] = I
    return KillingField(c, np.zeros((4, 4), dtype=complex))


def P_upper(mu) -> KillingField:
    return ETA_DIAG[mu] * P_lower(mu)


def M_lower(mu, nu) -> KillingField:
    """M_{mu nu}: linear part lin[b, rho] = i (eta_{mu rho} d^b_nu - eta_{nu rho} d^b_mu),
    so M_{mu mu} = 0 and M_{nu mu} = -M_{mu nu}."""
    lin = np.zeros((4, 4), dtype=complex)
    for rho in range(4):
        lin[nu, rho] += I * (ETA_DIAG[rho] if rho == mu else 0.0)
        lin[mu, rho] -= I * (ETA_DIAG[rho] if rho == nu else 0.0)
    return KillingField(np.zeros(4, dtype=complex), lin)


def L1() -> KillingField:
    return M_lower(2, 3)


def L2() -> KillingField:
    return (-1.0) * M_lower(1, 3)   # L2 = M31 = -M13


def L3() -> KillingField:
    return M_lower(1, 2)


def L_plus() -> KillingField:
    return L1() + 1j * L2()


def L_minus() -> KillingField:
    return L1() + (-1j) * L2()


#: The ten standard generators by index: (mu,) for P_mu and (mu, nu), mu < nu,
#: for M_{mu nu}.
GENERATORS = tuple((mu,) for mu in range(4)) + tuple(
    (mu, nu) for mu in range(4) for nu in range(mu + 1, 4))


def generator(index) -> KillingField:
    """P_mu for index (mu,), M_{mu nu} for index (mu, nu)."""
    return P_lower(*index) if len(index) == 1 else M_lower(*index)


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
    method 'auto' takes the jet where the field has one, 'fd' finite
    differences of step h, which skip the axes along which xi vanishes at
    every point and take the value and the other partials from one call of
    the field (fdiff.value_and_partials); ValueError naming any other method.
    """
    if method not in ("auto", "fd"):
        raise ValueError(f"unknown method {method!r}; expected 'auto' or 'fd'")
    evaluate = field.evaluate if hasattr(field, "evaluate") else field
    xiv = xi.value(t, x, y, z)
    dxi = xi.d_xi()
    if method == "auto" and hasattr(field, "jet"):
        a, grad = field.jet(t, x, y, z)
    else:
        axes = [mu for mu in range(4) if np.any(xiv[..., mu] != 0)]
        a, partials = fdiff.value_and_partials(evaluate, (t, x, y, z), axes, h)
        by_axis = dict(zip(axes, partials))
        grad = np.stack([by_axis.get(mu, np.zeros_like(a)) for mu in range(4)],
                        axis=xiv.ndim - 1)
    slots = "ab"[:a.ndim - (xiv.ndim - 1)]   # one subscript per slot of the value
    out = np.einsum(f"...c,...c{slots}->...{slots}", xiv, grad)
    for slot in slots:
        out = out + np.einsum(f"...{slots.replace(slot, 'c')},{slot}c->...{slots}", a, dxi)
    return out


class LieField:
    """Lazy Lie derivative of a field, itself evaluable: from the base's jet
    where it has one (off-axis points for a multipole), else by finite
    differences of step fdiff.DEFAULT_H."""

    def __init__(self, xi, base):
        self.xi = xi
        self.base = base

    def evaluate(self, t, x, y, z):
        return lie_derivative(self.xi, self.base, t, x, y, z)

    def time_derivative(self):
        """d_t Lie_xi A = Lie_xi d_t A + Lie_[d_t, xi] A, [d_t, xi] the constant
        field lin[:, 0]; the second term is left out where it is zero (the
        translations and rotations, which commute with d_t), not for a boost."""
        lie = LieField(self.xi, self.base.time_derivative())
        if not np.any(self.xi.lin[:, 0]):
            return lie
        commutator = KillingField(self.xi.lin[:, 0].copy(), np.zeros((4, 4), dtype=complex))
        return Superposition([(1.0, lie), (1.0, LieField(commutator, self.base))])


def angular_momentum_squared(field, t, x, y, z, h=fdiff.DEFAULT_H):
    """L^2 A = sum_i Lie_{L_i} Lie_{L_i} A by finite differences at both
    levels: one call of the field per generator, on the nested stencils."""
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

def helicity_dual(F):
    """S F_ab = -(i/2) eps_abcd F^{cd}, involutive; AsymmetryError unless F = -F^T to 1e-12."""
    F = np.asarray(F, dtype=complex)
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
        return helicity_dual(field_strength(self.mode, t, x, y, z))


def pauli_lubanski_residual(mode, t, x, y, z, h=fdiff.DEFAULT_H):
    """Max relative residual of S_mu F = P_mu (S F) over mu, where
    S_mu = (1/2) eps_{mu nu rho sigma} P^nu M^{rho sigma} acts on the mode's
    field strength by nested Lie derivatives.  The (sigma, rho) term equals
    the (rho, sigma) one (M and eps both flip sign), so each pair rho < sigma
    is taken once with weight eps instead of eps / 2."""
    def f_eval(tt, xx, yy, zz):
        return field_strength(mode, tt, xx, yy, zz)

    fval = f_eval(t, x, y, z)
    scale = np.abs(fval).max()
    dual_eval = DualField(mode)

    worst = 0.0
    for mu in range(4):
        lhs = None
        for rho in range(4):
            for sigma in range(rho + 1, 4):
                if np.abs(LEVI_CIVITA[mu, :, rho, sigma]).max() == 0:
                    continue
                m_up = ETA_DIAG[rho] * ETA_DIAG[sigma] * M_lower(rho, sigma)

                def g_eval(tt, xx, yy, zz, gen=m_up):
                    return lie_derivative(gen, f_eval, tt, xx, yy, zz, h=h)

                for nu in range(4):
                    w = LEVI_CIVITA[mu, nu, rho, sigma]
                    if w == 0.0:
                        continue
                    dG = fdiff.partial(g_eval, (t, x, y, z), nu, h)
                    term = w * (I * ETA_DIAG[nu]) * dG   # P^nu = i eta^{nu nu} d_nu
                    lhs = term if lhs is None else lhs + term
        rhs = lie_derivative(P_lower(mu), dual_eval, t, x, y, z, h=h)
        res = np.abs(lhs - rhs).max() / scale
        worst = max(worst, res)
    return worst


# ---------------------------------------------------------------------------
# Field-equation residuals on grids
# ---------------------------------------------------------------------------

def dalembertian_residual(grid: FieldGrid) -> float:
    """max |Box A| over the grid interior, relative to max |A|.

    Requires >= 5 nodes on every axis; the excluded boundary ring has width
    2 per differentiated axis.  Each axis's stencil runs on the interior
    only: the other axes are trimmed before it differentiates."""
    vals = grid.values
    for ax in range(4):
        if vals.shape[ax] < 5:
            raise StencilError(f"axis {ax} has {vals.shape[ax]} nodes; Box needs >= 5")
    names = ("t", "x", "y", "z")
    box = None
    for ax, sign in ((0, 1.0), (1, -1.0), (2, -1.0), (3, -1.0)):
        kept = fdiff.trim_interior(vals, [a for a in range(4) if a != ax])
        d2 = fdiff.grid_partial(kept, ax, grid.spacing(names[ax]), order=2)
        box = sign * d2 if box is None else box + sign * d2
    denom = np.abs(vals).max()
    return float(np.abs(box).max() / denom) if denom > 0 else 0.0


def divergence_residual(grid: FieldGrid) -> tuple:
    """(max |div A| / max |A|, the largest temporal component max |A_0|).

    div A = eta^{mu nu} d_mu A_nu.  On a single-time-slice grid the d_t A_0
    term requires A_0 = 0 (checked) and is dropped.  Each axis's stencil
    runs on the interior only: the other axes are trimmed before it
    differentiates."""
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
        kept = fdiff.trim_interior(vals[..., ax], [a for a in axes if a != ax])
        d = fdiff.grid_partial(kept, ax, grid.spacing(names[ax]), order=1)
        term = ETA_DIAG[ax] * d
        div = term if div is None else div + term
    res = float(np.abs(div).max() / denom) if denom > 0 else 0.0
    return res, a0_max


# ---------------------------------------------------------------------------
# Exact bracket algebra
# ---------------------------------------------------------------------------

def bracket(xi1: KillingField, xi2: KillingField) -> KillingField:
    """[xi1, xi2]^b = xi1^a d_a xi2^b - xi2^a d_a xi1^b, exact for affine fields."""
    c = xi2.lin @ xi1.const - xi1.lin @ xi2.const
    lin = xi2.lin @ xi1.lin - xi1.lin @ xi2.lin
    return KillingField(c, lin)


def expected_bracket(a, b) -> KillingField:
    """The structure constants for the generators of indices a and b:

        [P_mu, P_nu]  = 0,
        [P_mu, M_rs]  = i (eta_mr P_s - eta_ms P_r),
        [M_mn, M_rs]  = i (eta_mr M_sn - eta_ms M_rn - eta_nr M_sm + eta_ns M_rm),
        [M, P]        = -[P, M]."""
    if len(a) > len(b):
        return (-1.0) * expected_bracket(b, a)
    eta = np.diag(ETA_DIAG)
    if len(b) == 1:
        return 0.0 * P_lower(0)
    r, s = b
    if len(a) == 1:
        (m,) = a
        return I * (eta[m, r] * P_lower(s) - eta[m, s] * P_lower(r))
    m, n = a
    return I * (eta[m, r] * M_lower(s, n) - eta[m, s] * M_lower(r, n)
                - eta[n, r] * M_lower(s, m) + eta[n, s] * M_lower(r, m))


def check_all_brackets():
    """The pairs (a, b) of GENERATORS, each pair once, whose bracket differs
    from expected_bracket (exact comparison); [] when the algebra holds."""
    mismatches = []
    for i, a in enumerate(GENERATORS):
        for b in GENERATORS[i + 1:]:
            got, want = bracket(generator(a), generator(b)), expected_bracket(a, b)
            if not (np.array_equal(got.const, want.const) and np.array_equal(got.lin, want.lin)):
                mismatches.append((a, b))
    return mismatches
