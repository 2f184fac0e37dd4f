"""The conserved-current inner product, wave packets and overlap integrals.

On the Coulomb-gauge solution space the inner product is the constant-time
slice integral of the current

    j'_a[A, A'] = i [ (d_a conj(A)_b) A'^b - conj(A)^b d_a A'_b ],

    (A, A') = int_Sigma j'_0 d^3x.

Every field here is a positive-energy eigen- or wave-packet field, so d_t A
in j'_0 is analytic: the evaluate of the field's time_derivative().  The
spatial quadrature, a SliceSpec, is a tensor rule on a truncated slice:
the packet ball, one constant rule (Gauss-Legendre radially and in
cos(theta), uniform in phi -- exact for the trigonometric angular content
of the harmonics), or a Gauss-Legendre box.  A WavePacket is a
SphericalMode with a many-term energy spectrum: one multipole kernel pass
sums all its energies.

slice_gram(left, right, spec, form) takes every product on one slice,
walked in row-major blocks of _BLOCK nodes whose nodes and weights are
gathered from the rule's 1-d factors, so no whole-slice array is built.
In each block, each distinct field object's pair (A, d_t A), or (A, F_{0b})
from one field jet for the gauge-invariant field-strength form, is taken
once and held until the block ends, so the working set grows with the
number of fields but not with the slice.  Each column forms w eta A' and
then w eta dA' once (w the node weights, eta the metric diagonal), and each
entry is two conjugated dot products,
i [ vdot(dA, w eta A') - vdot(A, w eta dA') ]: beyond the pairs a column
holds one (n, 4) complex buffer.  inner and inner_field_strength_form are
its 1x1 case.  A gauge shift by a static Lambda reuses its base's pair and
adds only grad(Lambda) to the value.

Radial overlap integrals of Bessel products are conditionally convergent;
they are regularized two independent ways (TailSpec.tail) and both must
agree:

- 'averaged': truncation at R plus iterated two-point (Cesaro-style)
  averaging of partial sums at half-period lags of each beat frequency,
- 'damped':   exponential damper exp(-eta r), extrapolated to eta = 0 from
  its values v0, v1, v2 at (eta, eta/2, eta/4) as (v0 - 6 v1 + 8 v2) / 3.

An integrand may return a (K, n) stack of K integrands on the same nodes,
walked in blocks of _BLOCK nodes, the slice blocks' size: every kernel call
here sees at most _BLOCK nodes.  A discrete-sector Gram is block diagonal
by the Kronecker factors of its labels and is built from its blocks: 2 p0
sum_n kron(angular_n, radial_l[n]) over the spin sectors n per multipole l,
and 2 p0 2 pi (conj(c) * R) @ c.T per Bessel-beam m, 2 pi delta_mm' being
its phi integral (discrete_orthonormality).

Delta-normalization in the continuous labels is always verified through
square-integrable wave packets or Gaussian-smeared overlaps, never by
pointwise evaluation of a distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charts import ETA_DIAG
from .harmonics import _gauss_legendre, _integer, bessel_j, sph_harmonic_gram
from .modes import (SphericalLabel, CylindricalLabel, CylindricalMode, SphericalMode,
                    Superposition, sph_radial_profiles, _broadcast, _index_blocks)

TWO_PI = 2.0 * math.pi
GL_ORDER = 16       # nodes per segment of the composite radial rule
TAIL_ETA = 0.02     # largest damping rate of the damped tail (then /2, /4)
SMEAR_NODES = 48    # Gauss-Legendre nodes of a smeared delta row's k' integral

#: Nodes per block of every kernel call here: the slice blocks of slice_gram
#: and the radial blocks of _composite_gl.  A slice block's 4x4 complex jet is
#: 0.5 MB and its nodes and weights 90 kB, so a call's working set stays in
#: cache however many nodes the slice or the tail has; much smaller blocks
#: slow the scalar integrands (per-call set-up).
_BLOCK = 2048
#: k' nodes per bessel_j call of the smearing kernel: a call sees at most
#: _SMEAR_ROWS x _BLOCK arguments, not SMEAR_NODES x _BLOCK.
_SMEAR_ROWS = 8


# ---------------------------------------------------------------------------
# Quadrature specification
# ---------------------------------------------------------------------------

def _store_count(spec, nm, low):
    """ValueError naming nm unless it is an integer >= low; stored as int."""
    object.__setattr__(spec, nm, _integer(nm, getattr(spec, nm), low))


@dataclass(frozen=True)
class SliceSpec:
    """The slice rule of inner on the t = t_slice slice: the 'spherical'
    packet ball or a 'cartesian' box of half-width box_half with n_box
    Gauss-Legendre nodes an axis.  The ball is one constant rule, the one
    the packet checks use: radius r_max, n_r Gauss-Legendre radii,
    n_theta in cos(theta) and n_phi uniform angles (8,192 nodes, four
    _BLOCK blocks); they are class constants, not fields.  ValueError
    naming the first invalid field."""

    chart: str = "spherical"
    t_slice: float = 0.0
    box_half: float = 6.0
    n_box: int = 40

    r_max = 50.0
    n_r = 128
    n_theta = 8
    n_phi = 8

    def __post_init__(self):
        if self.chart not in ("spherical", "cartesian"):
            raise ValueError(f"chart must be 'spherical' or 'cartesian', got {self.chart!r}")
        if not math.isfinite(self.t_slice):
            raise ValueError("t_slice must be finite")
        if not 0 < self.box_half < math.inf:
            raise ValueError("box_half must be finite and > 0")
        _store_count(self, "n_box", 4)


@dataclass(frozen=True)
class TailSpec:
    """The radial regularization of the overlap integrals: 'averaged'
    (tail_r0, tail_rounds) or 'damped' (TAIL_ETA), both on the composite
    GL_ORDER-node rule.  The defaults are the Gram rule.  ValueError naming
    the first invalid field."""

    tail: str = "averaged"        # averaged | damped
    tail_r0: float = 300.0
    tail_rounds: int = 4

    def __post_init__(self):
        if self.tail not in ("averaged", "damped"):
            raise ValueError(f"tail must be 'averaged' or 'damped', got {self.tail!r}")
        if not 0 < self.tail_r0 < math.inf:
            raise ValueError("tail_r0 must be finite and > 0")
        _store_count(self, "tail_rounds", 0)


def _slice_blocks(spec: SliceSpec, size):
    """Walk the slice rule's nodes in row-major blocks of size nodes (the
    last block may be shorter): yields ((t, x, y, z), w) for each block,
    gathered by flat index from the rule's 1-d factors -- r, theta, phi
    and their weights for the ball, the axis and its weights for the box --
    so no whole-slice array is built.  Weights include the volume
    element."""
    if spec.chart == "spherical":
        xr, wr = _gauss_legendre(spec.n_r)
        r = 0.5 * (xr + 1.0) * (spec.r_max - 1e-9) + 1e-9
        wr = wr * 0.5 * spec.r_max
        xu, wu = _gauss_legendre(spec.n_theta)
        theta = np.arccos(xu)
        phi = np.arange(spec.n_phi) * TWO_PI / spec.n_phi
        wr2 = wr * r**2
        shape = (spec.n_r, spec.n_theta, spec.n_phi)

        def nodes(i, j, k):
            R, TH, PH = r[i], theta[j], phi[k]
            return (R * np.sin(TH) * np.cos(PH), R * np.sin(TH) * np.sin(PH), R * np.cos(TH),
                    wr2[i] * wu[j] * (TWO_PI / spec.n_phi))
    else:
        xg, wg = _gauss_legendre(spec.n_box)
        ax = xg * spec.box_half
        wax = wg * spec.box_half
        shape = (spec.n_box,) * 3

        def nodes(i, j, k):
            return ax[i], ax[j], ax[k], wax[i] * wax[j] * wax[k]
    for _, index in _index_blocks(shape, size):
        *xyz, w = nodes(*index)
        del index   # not held while the block is in use
        yield (np.full(w.shape, spec.t_slice), *xyz), w


# ---------------------------------------------------------------------------
# Currents and the inner product
# ---------------------------------------------------------------------------

def _density(da, av, db, bv):
    """i [ conj(dA)_b A'^b - conj(A)^b dA'_b ] with dA = d_t A (j'_0),
    dA = d_a A (row a of the current) or dA_b = F_{0b} (the field-strength
    form)."""
    return 1j * np.einsum("b,...b->...", ETA_DIAG, np.conj(da) * bv - np.conj(av) * db)


def current(a_field, b_field, t, x, y, z):
    """j'_a[A, A'] = i [ (d_a conj(A)_b) A'^b - conj(A)^b d_a A'_b ]: the
    density on each row a of the two jets, one jet per distinct field."""
    av, ga = a_field.jet(t, x, y, z)
    bv, gb = (av, ga) if b_field is a_field else b_field.jet(t, x, y, z)
    return np.stack([_density(ga[..., a, :], av, gb[..., a, :], bv) for a in range(4)], axis=-1)


def _current_jet(field, t, x, y, z):
    """(A, d_t A), d_t A from time_derivative(): the pair j'_0 takes."""
    return field.evaluate(t, x, y, z), field.time_derivative().evaluate(t, x, y, z)


def _field_strength_jet(field, t, x, y, z):
    """(A, F_{0b}) with F_{0b} = d_0 A_b - d_b A_0, from one field jet."""
    a, g = field.jet(t, x, y, z)
    return a, g[..., 0, :] - g[..., :, 0]


_FORM_JETS = {"current": _current_jet, "field_strength": _field_strength_jet}


def _slice_pair(field, jets, form_jet, nodes):
    """The field's pair (A, dA) on the slice nodes, memoized in jets by object
    id.  A GaugeShiftedField's pair is its base's with grad(Lambda) added to
    the value.  A module-level function, so that no closure refers to itself:
    such a cycle would keep the nodes and pairs alive until the next cyclic
    garbage collection."""
    key = id(field)
    if key not in jets:
        if isinstance(field, GaugeShiftedField):
            value, deriv = _slice_pair(field.base, jets, form_jet, nodes)
            jets[key] = (value + field.lam.gradient(*nodes), deriv)
        else:
            jets[key] = form_jet(field, *nodes)
    return jets[key]


def _block_gram(left, right, form_jet, nodes, w):
    """The Gram contribution of one block of slice nodes.  Each distinct
    field object's pair is taken once and held until the block ends; w eta
    is formed once, each column's w eta A' and then w eta dA' once, in one
    buffer, and each entry is i [ vdot(dA, w eta A') - vdot(A, w eta dA') ]:
    two conjugated dot products over the nodes and the Lorentz index."""
    jets = {}
    rows = [_slice_pair(a, jets, form_jet, nodes) for a in left]
    w_eta = w[:, None] * ETA_DIAG
    gram = np.empty((len(left), len(right)), dtype=complex)
    for j, b in enumerate(right):
        bv, db = _slice_pair(b, jets, form_jet, nodes)
        weighted = w_eta * bv
        first = [np.vdot(da, weighted) for _, da in rows]
        np.multiply(w_eta, db, out=weighted)
        for i, (av, _) in enumerate(rows):
            gram[i, j] = 1j * (first[i] - np.vdot(av, weighted))
    return gram


def slice_gram(left, right, spec: SliceSpec, form="current"):
    """The len(left) x len(right) matrix of slice integrals
    int i [ conj(dA)_b A'^b - conj(A)^b dA'_b ] d^3x, A in left, A' in right,
    with dA = d_t A (form 'current': the inner product) or dA_b = F_{0b}
    (form 'field_strength').

    The slice is walked in row-major blocks of _BLOCK nodes, each
    block's nodes and weights gathered from the rule's 1-d factors
    (_slice_blocks), and the blocks' contributions are summed
    (_block_gram).  A block's nodes and pairs are freed before the next
    block starts, so the working set does not grow with the slice.  In a
    block, each distinct field object's pair (A, dA) is taken once and held
    until the block ends: evaluate of the field and of its
    time_derivative() for the current, one field jet for the field-strength
    form.  Each column's w eta A' and w eta dA' are formed once, in turn in
    one buffer, and each entry reduces the block as
    i [ vdot(dA, w eta A') - vdot(A, w eta dA') ].  A GaugeShiftedField's
    pair is its base's plus grad(Lambda) on the value: Lambda is static, so
    it adds exactly zero to d_t A and to F_{0b} = d_0 A_b - d_b A_0, and no
    Hessian is built.  Every other field is evaluated through its own
    methods.  A slice of at most _BLOCK nodes is one block; the packet
    ball is four."""
    if form not in _FORM_JETS:
        raise ValueError(f"form must be 'current' or 'field_strength', got {form!r}")
    form_jet = _FORM_JETS[form]
    gram = np.zeros((len(left), len(right)), dtype=complex)
    for nodes, w in _slice_blocks(spec, _BLOCK):
        gram += _block_gram(left, right, form_jet, nodes, w)
    return gram


def inner(a_field, b_field, spec: SliceSpec):
    """(A, A') by slice quadrature of j'_0, time derivatives taken
    analytically (fields are energy superpositions)."""
    return complex(slice_gram([a_field], [b_field], spec)[0, 0])


def inner_field_strength_form(a_field, b_field, spec: SliceSpec):
    """The field-strength form of the inner product,
    (F, F') = int i [ conj(F)_{0b} A'^b - conj(A)^b F'_{0b} ] d^3x.

    Gauge invariant for A -> A + grad(Lambda) with compact Lambda; used by
    the gauge-invariance checks."""
    return complex(slice_gram([a_field], [b_field], spec, "field_strength")[0, 0])


# ---------------------------------------------------------------------------
# Gauge shifts and wave packets
# ---------------------------------------------------------------------------

class GaussianBumpScalar:
    """Compact-support-like scalar Lambda = (c0 + c.x) exp(-|x-x0|^2 / w^2),
    static in time; supplies value, spacetime gradient and spatial Hessian.
    ValueError naming the parameter unless width > 0 (inf: a constant
    Lambda) and center, c0 and linear are finite, center and linear with 3
    components."""

    def __init__(self, center, width, c0=1.0, linear=(0.0, 0.0, 0.0)):
        self.center = np.asarray(center, dtype=float)
        self.width = float(width)
        self.c0 = float(c0)
        self.linear = np.asarray(linear, dtype=float)
        if not self.width > 0:
            raise ValueError(f"GaussianBumpScalar width must be > 0, got {width!r}")
        if not math.isfinite(self.c0):
            raise ValueError(f"GaussianBumpScalar c0 must be finite, got {c0!r}")
        for nm in ("center", "linear"):
            vec = getattr(self, nm)
            if vec.shape != (3,) or not np.all(np.isfinite(vec)):
                raise ValueError(f"GaussianBumpScalar {nm} must be 3 finite numbers, "
                                 f"got {vec.tolist()!r}")

    def _poly_env(self, t, x, y, z):
        """The offsets (x - x0, y - y0, z - z0), the polynomial and the
        envelope, each on the broadcast coordinates."""
        _, x, y, z = _broadcast(t, x, y, z)
        d = (x - self.center[0], y - self.center[1], z - self.center[2])
        poly = self.c0 + (d[0] * self.linear[0] + d[1] * self.linear[1] + d[2] * self.linear[2])
        env = np.exp(-(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]) / self.width**2)
        return d, poly, env

    def value(self, t, x, y, z):
        _, poly, env = self._poly_env(t, x, y, z)
        return poly * env

    def gradient(self, t, x, y, z):
        """Spacetime gradient (d_t Lambda = 0)."""
        d, poly, env = self._poly_env(t, x, y, z)
        out = np.zeros(poly.shape + (4,), dtype=complex)
        for i in range(3):
            out.real[..., 1 + i] = (self.linear[i] + poly * (-2.0 * d[i] / self.width**2)) * env
        return out

    def hessian(self, t, x, y, z):
        """d_mu d_nu Lambda (spatial block only)."""
        d, poly, env = self._poly_env(t, x, y, z)
        w2 = self.width**2
        g = [-2.0 * di / w2 for di in d]
        out = np.zeros(poly.shape + (4, 4), dtype=complex)
        for i in range(3):
            for j in range(i, 3):
                gg = g[i] * g[j] - (2.0 / w2) if i == j else g[i] * g[j]
                out.real[..., 1 + i, 1 + j] = out.real[..., 1 + j, 1 + i] = (
                    (self.linear[i] * g[j] + self.linear[j] * g[i] + poly * gg) * env)
        return out


class GaugeShiftedField:
    """A -> A + grad(Lambda); no longer Coulomb but the field-strength-form
    inner product is unchanged."""

    def __init__(self, base, lam: GaussianBumpScalar):
        self.base = base
        self.lam = lam

    def evaluate(self, t, x, y, z):
        return self.base.evaluate(t, x, y, z) + self.lam.gradient(t, x, y, z)

    def jet(self, t, x, y, z):
        """The base's jet plus (grad Lambda, Hessian of Lambda)."""
        a, g = self.base.jet(t, x, y, z)
        return a + self.lam.gradient(t, x, y, z), g + self.lam.hessian(t, x, y, z)

    def time_derivative(self):
        """d_t of the field: the base's, since Lambda is static."""
        return self.base.time_derivative()


def gauge_shift(a_field, lam: GaussianBumpScalar) -> GaugeShiftedField:
    return GaugeShiftedField(a_field, lam)


class WavePacket(SphericalMode):
    """Square-integrable superposition of multipole modes over the energy,

        psi = int g(p0) |p0, l, m, s> dp0,
        g(p) = (pi w^2)^{-1/4} exp(-(p - center)^2 / (2 w^2)),

    discretized by Gauss-Legendre nodes over center +- 6 w.  It is the
    SphericalMode whose energy spectrum is (p_nodes, amplitudes), with
    amplitudes the rule's weights times g(p_nodes): the angular x dyad factor is built
    once per point set and only the radial factor is summed over the nodes.
    Its label carries the central energy.  Its norm under the
    conserved-current inner product equals int |g|^2 dp0 (= 1 up to
    Gaussian truncation), which norm_expected() computes with an independent
    dense 1-D rule.  ValueError naming the field unless width is finite and
    > 0, center is finite and n_nodes is an integer >= 1."""

    def __init__(self, l, m, s, center=1.0, width=0.2, n_nodes=32):
        if not 0 < width < math.inf:
            raise ValueError(f"WavePacket width must be finite and > 0, got {width!r}")
        if not math.isfinite(center):
            raise ValueError(f"WavePacket center must be finite, got {center!r}")
        n_nodes = _integer("WavePacket n_nodes", n_nodes, 1)
        if center - 4.0 * width <= 0:
            raise ValueError("packet support must stay at positive energy")
        super().__init__(SphericalLabel(p0=center, l=l, m=m, s=s))
        self.center, self.width = float(center), float(width)
        xg, wg = _gauss_legendre(n_nodes)
        lo = max(center - 6.0 * width, 0.02 * center)
        hi = center + 6.0 * width
        self.p_nodes = 0.5 * (xg + 1.0) * (hi - lo) + lo
        self.amplitudes = wg * 0.5 * (hi - lo) * self._g(self.p_nodes)
        self._spectrum = (self.p_nodes, self.amplitudes)

    def _g(self, p):
        w = self.width
        return (math.pi * w**2) ** -0.25 * np.exp(-((p - self.center) ** 2) / (2.0 * w**2))

    def norm_expected(self):
        """int |g|^2 dp0 by the trapezoid rule on 4,001 nodes over center +- 8 w."""
        p = np.linspace(self.center - 8.0 * self.width, self.center + 8.0 * self.width, 4001)
        return float(np.trapezoid(self._g(p) ** 2, p))


# ---------------------------------------------------------------------------
# Regularized oscillatory radial integrals
# ---------------------------------------------------------------------------

def _segment(freqs):
    """Composite-rule segment length: a quarter period of the fastest beat
    frequency, at most 2."""
    return min(0.25 * TWO_PI / max(max(freqs) if freqs else 1.0, 1e-9), 2.0)


def _composite_gl(f, a, b, seg_len):
    """int_a^b f(r) dr by the composite GL_ORDER-node Gauss-Legendre rule,
    segments at most seg_len long.  f maps n nodes to n values, or to a
    (K, n) stack of K integrands, whose K integrals are returned.  The nodes
    are walked in blocks of _BLOCK."""
    if b <= a:
        return 0.0
    nseg = max(1, int(math.ceil((b - a) / seg_len)))
    edges = np.linspace(a, b, nseg + 1)
    xg, wg = _gauss_legendre(GL_ORDER)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    total = 0.0
    for start in range(0, len(nodes), _BLOCK):
        block = slice(start, start + _BLOCK)
        total = total + f(nodes[block]) @ weights[block]
    return total


def _averaging_lattice(freqs, rounds):
    """Offsets/weights of iterated two-point averaging at half-period lags."""
    lattice = [(0.0, 1.0)]
    for w in freqs:
        if w <= 1e-9:
            continue
        lag = math.pi / w
        for _ in range(rounds):
            lattice = [(off, wt * 0.5) for off, wt in lattice] + \
                      [(off + lag, wt * 0.5) for off, wt in lattice]
    merged = {}
    for off, wt in lattice:
        merged[round(off, 12)] = merged.get(round(off, 12), 0.0) + wt
    return sorted(merged.items())


def _averaged_at(f, head, r0, lattice, seg):
    """The lattice's average of the partial sums int_0^{r0 + off} f, given
    head = int_0^r0 f."""
    cumulative = {}
    prev_off, prev_v = 0.0, head
    for off, _ in lattice:
        if off > prev_off:
            prev_v = prev_v + _composite_gl(f, r0 + prev_off, r0 + off, seg)
            prev_off = off
        cumulative[off] = prev_v
    return sum(wt * cumulative[off] for off, wt in lattice)


def averaged_oscillatory_integral(f, freqs, spec: TailSpec):
    """Truncation plus iterated half-period averaging of partial sums (one
    averaging stage per beat frequency, spec.tail_rounds deep), then a
    two-point Richardson step in the truncation radius, 2 S(2R) - S(R),
    which removes the ~1/R contribution of the slowly decaying
    non-oscillatory part of Bessel-product tails.  The head int_0^R f is
    taken once: S(2R) starts from it plus int_R^2R f."""
    seg = _segment(freqs)
    r0 = spec.tail_r0
    lattice = _averaging_lattice(sorted(freqs), spec.tail_rounds)
    head = _composite_gl(f, 0.0, r0, seg)
    s1 = _averaged_at(f, head, r0, lattice, seg)
    s2 = _averaged_at(f, head + _composite_gl(f, r0, 2.0 * r0, seg), 2.0 * r0, lattice, seg)
    return 2.0 * s2 - s1


def damped_oscillatory_integral(f, freqs):
    """Exact head integral plus an exponentially damped tail,

        I(eta) = int_0^{k/eta} f + int_{k/eta}^inf e^{-eta (r - k/eta)} f(r) dr,

    Richardson-extrapolated eta -> 0 through eta = TAIL_ETA, /2, /4: the
    quadratic through the three values v0, v1, v2 takes
    (v0 - 6 v1 + 8 v2) / 3 at eta = 0.  Tying the head length to k/eta
    makes the error of the slowly decaying ~1/r^2 part of Bessel-product
    tails exactly linear in eta, so the extrapolation removes it."""
    seg = _segment(freqs)
    vals = []
    for eta in (TAIL_ETA, TAIL_ETA / 2.0, TAIL_ETA / 4.0):
        r0 = 3.0 / eta   # head must scale with 1/eta to keep the error linear
        r_max = r0 + 10.0 / eta
        head = _composite_gl(f, 0.0, r0, seg)
        vals.append(head + _composite_gl(
            lambda r, e=eta, rr=r0: np.exp(-e * (r - rr)) * f(r), r0, r_max, seg))
    v0, v1, v2 = vals
    return (v0 - 6.0 * v1 + 8.0 * v2) / 3.0


def oscillatory_integral(f, freqs, spec: TailSpec):
    """The regularized int_0^inf f(r) dr under spec.tail; an f returning a
    (K, n) stack gets its K integrals, all on the same nodes."""
    if spec.tail == "averaged":
        return averaged_oscillatory_integral(f, freqs, spec)
    return damped_oscillatory_integral(f, freqs)


# ---------------------------------------------------------------------------
# Bessel overlap tables
# ---------------------------------------------------------------------------

def _beat_freqs(k1, k2):
    beat = abs(k1 - k2)
    return [k1 + k2, beat] if beat > 5e-2 else [k1 + k2]


def _overlap_orders(kind, order, k1, k2):
    """The Bessel orders (nu1, nu2) of a bessel_overlap row.  ValueError
    naming kind unless known, order unless an integer >= 0 (a negative order
    diverges at r = 0), k1 or k2 unless finite and >= 0, and k1 = 0 for
    sph_cross at order 0, where J_{-1/2}(k1 r) is infinite."""
    if kind not in ("sph_inv_r", "sph_cross"):
        raise ValueError(f"unknown overlap kind {kind!r}")
    order = _integer("order", order, 0)
    for nm, value in (("k1", k1), ("k2", k2)):
        if not 0 <= value < math.inf:
            raise ValueError(f"{nm} must be finite and >= 0, got {value!r}")
    if kind == "sph_inv_r":
        return order + 0.5, order + 0.5
    if order == 0 and k1 == 0:
        raise ValueError("k1 must be > 0 for sph_cross at order 0: J_{-1/2}(0) is infinite")
    return order - 0.5, order + 0.5


def bessel_overlap(kind, order, k1, k2, spec: TailSpec):
    """Regularized radial overlap integral.

    kind: 'sph_inv_r'  int (1/r) J_{l+1/2}(k1 r) J_{l+1/2}(k2 r) dr
          'sph_cross'  int       J_{l-1/2}(k1 r) J_{l+1/2}(k2 r) dr
    with order = l.  The delta-normalized rows are only meaningful smeared;
    see smeared_radial_delta.  ValueError as _overlap_orders names it."""
    nu1, nu2 = _overlap_orders(kind, order, k1, k2)

    def f(r):
        weight = 1.0 / r if kind == "sph_inv_r" else 1.0
        return weight * bessel_j(nu1, k1 * r) * bessel_j(nu2, k2 * r)

    return oscillatory_integral(f, _beat_freqs(k1, k2), spec)


def bessel_overlap_closed_form(kind, order, k1, k2):
    """Closed-form value of a bessel_overlap row: 0.0 where k1 or k2 is 0.
    ValueError as _overlap_orders names it."""
    _overlap_orders(kind, order, k1, k2)
    if k1 == 0 or k2 == 0 or (kind == "sph_cross" and k1 > k2):
        return 0.0
    if kind == "sph_inv_r":
        return (1.0 / (2.0 * order + 1.0)) * (min(k1, k2) / max(k1, k2)) ** (order + 0.5)
    if k1 == k2:
        return 1.0 / (2.0 * k1)
    return (1.0 / k1) * (k1 / k2) ** (order + 0.5)


def smeared_radial_delta(kind, order, k_fixed, center, sigma):
    """Gaussian-smeared delta row: returns (numeric, expected) for

        int dk' G(k'; center, sigma) int_0^inf w(r) J(k r) J(k' r) dr
            = G(k_fixed; center, sigma) / k_fixed,

    kind 'cyl_rho' (w = rho, J = J_m) or 'sph_r' (w = r, J = J_{l+1/2}).
    The r integral is _composite_gl's, in blocks of _BLOCK nodes; on each
    block the kernel's Bessel values J(k' r) of the SMEAR_NODES k' nodes
    are taken _SMEAR_ROWS k' nodes a call into one (SMEAR_NODES, n) array.
    ValueError naming kind for any other kind, k_fixed or sigma unless it
    is finite and > 0, and center unless it is finite."""
    if kind not in ("cyl_rho", "sph_r"):
        raise ValueError(f"unknown smeared-delta kind {kind!r}; expected 'cyl_rho' or 'sph_r'")
    if not math.isfinite(center):
        raise ValueError(f"center must be finite, got {center!r}")
    for nm, value in (("k_fixed", k_fixed), ("sigma", sigma)):
        if not 0 < value < math.inf:
            raise ValueError(f"{nm} must be finite and > 0, got {value!r}")
    nu = order if kind == "cyl_rho" else order + 0.5
    xg, wg = _gauss_legendre(SMEAR_NODES)
    lo, hi = center - 6.0 * sigma, center + 6.0 * sigma
    if lo <= 0:
        raise ValueError("smearing window must stay positive")
    kn = 0.5 * (xg + 1.0) * (hi - lo) + lo
    wk = wg * 0.5 * (hi - lo)
    gauss = np.exp(-((kn - center) ** 2) / (2.0 * sigma**2)) / (sigma * math.sqrt(TWO_PI))

    r_max = 12.0 / sigma
    def f(r):
        jk = np.empty((SMEAR_NODES, r.size))
        for start in range(0, SMEAR_NODES, _SMEAR_ROWS):
            rows = slice(start, start + _SMEAR_ROWS)
            jk[rows] = bessel_j(nu, np.outer(kn[rows], r))
        kernel = np.einsum("k,kr->r", wk * gauss, jk)
        return r * bessel_j(nu, k_fixed * r) * kernel

    numeric = _composite_gl(f, 0.0, r_max, _segment([center + k_fixed]))
    expected = float(np.exp(-((k_fixed - center) ** 2) / (2.0 * sigma**2))
                     / (sigma * math.sqrt(TWO_PI)) / k_fixed)
    return numeric, expected


# ---------------------------------------------------------------------------
# Discrete-sector Gram matrices
# ---------------------------------------------------------------------------

@dataclass
class GramResult:
    labels: list
    matrix: np.ndarray           # normalized by the diagonal
    diagonal: np.ndarray
    max_offdiag: float           # the largest |matrix| entry off the diagonal


def discrete_orthonormality(family, fixed, ranges, spec: TailSpec) -> GramResult:
    """Gram matrix over a discrete-label sector at shared continuous labels.

    family='spherical': fixed={'p0': ...}, ranges={'l_max': L}; labels run
    over l = 1..L, |m| <= l, s = +-1.  family='cylindrical':
    fixed={'p0': ..., 'pz': ...}, ranges={'m_max': M}; labels run over
    |m| <= M, s = +-1 (transverse-plane Gram at fixed longitudinal factor).

    The modes are delta-normalized with Kronecker factors in the discrete
    labels, so the Gram is built block by block, exactly 0 between blocks.
    A multipole's l block is 2 p0 sum_n kron(angular_n[l block, l block],
    radial_l[n]) over the sectors n = 0, -1, +1, angular_n from
    sph_harmonic_gram and radial_l[n] the 2x2 helicity matrix of
    int conj(R_n[l, s]) R_n[l, s'] r^2 dr.  A Bessel beam's m block is
    2 p0 2 pi (conj(c) * R) @ c.T: 2 pi delta_mm' the phi integral, c the
    (cz, cm, cp) rows of the two helicities, R the int rho J_k(alpha rho)^2
    drho at k = |m|, |m - 1|, |m + 1|.  The radial integrals share the
    nodes of spec's rule: one stacked integral per l, or one for all k.

    ValueError naming the key, before any quadrature, when fixed or ranges
    lacks a key the family takes or has one it does not, or unless p0 is
    finite and > 0, pz finite with |pz| < p0, l_max an integer >= 1 and m_max
    an integer >= 0; ValueError naming p0, after it, when the Gram's diagonal
    is not finite and > 0 (a p0 so small that the radial integrals overflow).
    """
    takes = {"spherical": (("p0",), ("l_max",)), "cylindrical": (("p0", "pz"), ("m_max",))}
    if family not in takes:
        raise ValueError(f"unknown family {family!r}")
    for what, given, keys in zip(("fixed", "ranges"), (fixed, ranges), takes[family]):
        wrong = ([f"missing key {key!r}" for key in keys if key not in given]
                 + [f"unknown key {key!r}" for key in given if key not in keys])
        if wrong:
            raise ValueError(f"{family} {what}: {', '.join(wrong)}; it takes {', '.join(keys)}")
    if family == "spherical":
        return _gram_spherical(fixed["p0"], _integer("l_max", ranges["l_max"], 1), spec)
    return _gram_cylindrical(fixed["p0"], fixed["pz"], _integer("m_max", ranges["m_max"], 0),
                             spec)


def _normalized(labels, gram, p0):
    """The GramResult of the Hermitian gram, normalized by its real diagonal."""
    diag = np.real(np.diag(gram)).copy()
    if not np.all(np.isfinite(diag) & (diag > 0)):
        raise ValueError(f"p0={p0!r} is out of range: the Gram's "
                         f"diagonal is not finite and > 0")
    matrix = gram / np.sqrt(np.outer(diag, diag))
    off = np.abs(matrix)
    np.fill_diagonal(off, 0.0)
    return GramResult(labels, matrix, diag, float(off.max()))


def _gram_spherical(p0, l_max, spec):
    lm = [(l, m) for l in range(1, l_max + 1) for m in range(-l, l + 1)]
    labels = [(l, m, s) for l, m in lm for s in (+1, -1)]
    # per sector n = 0, -1, +1: the overlaps of its harmonics Y[n]
    angular = [sph_harmonic_gram(n, lm, 2 * l_max + 6, 4 * l_max + 8) for n in (0, -1, 1)]
    gram = np.zeros((len(labels), len(labels)), dtype=complex)
    for l in range(1, l_max + 1):
        profile = [SphericalLabel(p0, l, 0, s) for s in (1, -1)]
        def f(r):   # the 12 conj(R_n[l, s]) R_n[l, s'] r^2 in (n, s, s') order
            prof = [sph_radial_profiles(label, r) for label in profile]
            r2 = r**2
            return np.stack([np.conj(fa[sector]) * fb[sector] * r2
                             for sector in range(3) for fa in prof for fb in prof])

        # radial[sector, s, s'], s and s' indexed 0 for +1 and 1 for -1
        radial = oscillatory_integral(f, [2.0 * p0], spec).reshape(3, 2, 2)
        block = slice(l * l - 1, (l + 1) ** 2 - 1)    # the l block's lm indices
        rows = slice(2 * block.start, 2 * block.stop)  # and its labels, two each
        gram[rows, rows] = 2.0 * p0 * sum(np.kron(ang[block, block], radial[sector])
                                          for sector, ang in enumerate(angular))
    return _normalized(labels, gram, p0)


def _gram_cylindrical(p0, pz, m_max, spec):
    labels = [(m, s) for m in range(-m_max, m_max + 1) for s in (+1, -1)]
    beams = [CylindricalMode(CylindricalLabel(p0, pz, m, s)) for (m, s) in labels]
    alpha = beams[0].alpha
    if alpha == 0.0:   # |pz| = p0: every label but m = +-1 is the zero field
        raise ValueError(f"pz must be finite with |pz| < p0, got pz={pz!r}, p0={p0!r}")

    def f(rho):
        x = alpha * rho
        return np.stack([rho * jk * jk for jk in (bessel_j(k, x) for k in range(m_max + 2))])

    # row k: the regularized int rho J_k(alpha rho)^2 drho, k = 0..m_max+1
    radial = oscillatory_integral(f, [2.0 * alpha], spec)
    gram = np.zeros((len(labels), len(labels)), dtype=complex)
    for i, m in enumerate(range(-m_max, m_max + 1)):
        rows = slice(2 * i, 2 * i + 2)
        c = np.array([(b.cz, b.cm, b.cp) for b in beams[rows]])
        R = radial[[abs(m), abs(m - 1), abs(m + 1)]]
        gram[rows, rows] = 2.0 * p0 * TWO_PI * (np.conj(c) * R) @ c.T
    return _normalized(labels, gram, p0)
