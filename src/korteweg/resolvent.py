"""Full half-space resolvent: whole-space part plus boundary corrector,
and the pressure-gradient perturbation by fixed-point iteration.

Geometry convention: the doubled periodic box spans the normal interval
[-H, H) with m points; the half-space fields live on the uniform normal
grid {0, h, .., H} (m/2 + 1 points, the top sample being the wrap point
of the box).  Tangential period equals 2H so the box is isotropic.

The solution object keeps the whole-space part as lattice coefficients
and the corrector as per-mode channel profiles, so every derivative in
the residuals and norm blocks is exact (spectral or recurrence), never a
finite difference.

What a gamma = 0 solve reads that depends only on (geometry, lam,
params) is one ``LambdaState``: the whole-space multipliers and the
corrector's channel table.  ``solve_general`` builds one per call and
every Neumann iterate shares it.  The data norm transforms only the data
fields that are not identically zero.

The solution operators act one tangential mode at a time, so norms and
residual rows are taken per mode.  A row is the k-th normal derivative
of a field on the half grid, in tangential-frequency space, and one
kernel, ``normal_row``, makes it from box coefficients: (i k_N)^k, one
inverse transform along the normal axis, ``restrict``.  A solution row
adds the corrector sample (``PipelineSolution.row``, cached per field
and k); a data row of g or h starts from its even extension
(``data_rows``).  A block of total order t weights row k by
sqrt(C(t, k)) |xi'|^(t - k), so by Parseval over the tangential modes
its norm is that of the full order-t derivative tensor
(``HalfGeometry.block_sq``).  The blocks take no tangential inverse
transform; ``field`` and ``residual_full`` take one per field or
residual row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, NeumannDiverged
from .halfspace import (NormalSamples, ReducedSolution, TangentialGrid,
                        solve_reduced_hat)
from .model import (DerivedConstants, MaterialParams, _d, boundary_rows,
                    derive_constants, interior_rows, mode_derivative)
from .symbols import lam_axes
from .wholespace import BoxGrid, apply_whole, whole_multipliers

# fixed-point budget of solve_general, and its stopping threshold on the
# increment relative to the data norm
MAX_NEUMANN_ITER = 64
NEUMANN_TOL = 1e-10
# auto_lambda0: first modulus floor, the one-step ratio that counts as
# contracting, and the number of doublings before giving up
LAMBDA0_START = 0.5
LAMBDA0_TARGET = 0.45
LAMBDA0_DOUBLINGS = 40
# random_full_data: highest tangential and normal lattice mode drawn
DATA_KMAX = 4
DATA_K_NORMAL = 4


@dataclass(frozen=True)
class HalfGeometry:
    """Half-space discretization tied to a doubled isotropic box."""

    dim: int = 2
    points_per_axis: int = 64
    height: float = 10.0

    def __post_init__(self):
        m = self.points_per_axis
        if m < 4 or (m & (m - 1)) != 0:
            raise ValueError("points_per_axis must be a power of two >= 4")

    @property
    def n_half(self) -> int:
        return self.points_per_axis // 2 + 1

    @property
    def period(self) -> float:
        return 2.0 * self.height

    @property
    def box(self) -> BoxGrid:
        return BoxGrid(dim=self.dim, points_per_axis=self.points_per_axis,
                       period=self.period)

    @property
    def tangential(self) -> TangentialGrid:
        return TangentialGrid(dim_t=self.dim - 1,
                              modes_per_axis=self.points_per_axis,
                              period=self.period)

    @property
    def normal_step(self) -> float:
        return self.period / self.points_per_axis

    def normal_samples(self) -> NormalSamples:
        return NormalSamples.uniform(self.n_half, self.height)

    @property
    def half_shape(self):
        return self.tangential.shape + (self.n_half,)

    def normal_weights(self):
        w = np.full(self.n_half, self.normal_step)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def mode_weights(self):
        """Quadrature weights of a per-mode block: the normal trapezoid
        times (period / m^2)^(dim - 1), the tangential Parseval factor of
        an unnormalized transform."""
        tangential = (self.period / self.points_per_axis ** 2) ** (
            self.dim - 1)
        return self.normal_weights() * tangential

    def block_sq(self, blocks) -> float:
        """Sum of squared half-box L2 norms over a sequence of per-mode
        blocks.

        The leading (component and batch) axes of each block are summed.
        """
        w = self.mode_weights()
        return sum(float(np.sum(np.abs(b) ** 2 * w)) for b in blocks)

    def member_sq(self, blocks):
        """Squared half-box L2 norm of each batch member, summed over a
        sequence of per-mode blocks: one value per index of the member
        axis, the axis just before the spatial axes.

        Each member is summed alone, so its value does not depend on the
        other members of the batch.
        """
        w = self.mode_weights()
        axis = -self.dim - 1
        return sum(np.moveaxis(np.abs(b) ** 2 * w, axis, 0).reshape(
            b.shape[axis], -1).sum(axis=1) for b in blocks)

    def half_l2(self, arr) -> float:
        """L2 of a physical field over the half box; leading axes are
        components."""
        w = self.normal_weights() * self.tangential.cell_measure()
        return float(np.sqrt(np.sum(np.abs(arr) ** 2 * w)))


@dataclass
class FullData:
    """The four data rows, sampled on the uniform half grid.

    ``g`` and ``h`` are half-space fields (their traces feed the boundary
    rows; their derivatives feed the weighted data norm).

    A batch of data carries batch axes after the component axis and
    before the spatial axes: ``d`` and ``h`` have shape
    ``batch + half_shape``, ``f`` and ``g`` ``(dim,) + batch + half_shape``.
    A single datum has the empty batch shape.
    """

    geometry: HalfGeometry
    d: np.ndarray
    f: np.ndarray
    g: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        geo = self.geometry
        half = geo.half_shape
        batch = self.d.shape[:max(self.d.ndim - len(half), 0)]
        vec = (geo.dim,) + batch + half
        if (self.d.shape != batch + half or self.f.shape != vec
                or self.g.shape != vec or self.h.shape != batch + half):
            raise GridMismatch("data shapes do not match geometry")

    def with_member_axis(self) -> "FullData":
        """View with a length-one batch axis appended.

        The data then broadcast against one more axis of lambdas.
        """
        ix = (..., None) + (slice(None),) * self.geometry.dim
        return FullData(self.geometry, self.d[ix], self.f[ix], self.g[ix],
                        self.h[ix])

    @classmethod
    def zeros(cls, geometry: HalfGeometry) -> "FullData":
        n = geometry.dim
        return cls(geometry=geometry,
                   d=np.zeros(geometry.half_shape, dtype=complex),
                   f=np.zeros((n,) + geometry.half_shape, dtype=complex),
                   g=np.zeros((n,) + geometry.half_shape, dtype=complex),
                   h=np.zeros(geometry.half_shape, dtype=complex))

    def combine(self, other: "FullData", factor=1.0) -> "FullData":
        return FullData(self.geometry, self.d + factor * other.d,
                        self.f + factor * other.f,
                        self.g + factor * other.g,
                        self.h + factor * other.h)

    def diff_norm(self, other: "FullData", lam: complex) -> float:
        return fx_norm(self.combine(other, -1.0), lam)


def extend_even(geometry: HalfGeometry, arr):
    """Even reflection across the boundary onto the doubled box."""
    m = geometry.points_per_axis
    if arr.shape[-1] != geometry.n_half:
        raise GridMismatch("normal axis does not match geometry")
    idx = np.abs(np.arange(m) - m // 2)
    return arr[..., idx]


def extend_zero(geometry: HalfGeometry, arr):
    """Zero extension; the wrap sample at -H carries the +H value."""
    m = geometry.points_per_axis
    if arr.shape[-1] != geometry.n_half:
        raise GridMismatch("normal axis does not match geometry")
    out = np.zeros(arr.shape[:-1] + (m,), dtype=complex)
    out[..., m // 2:] = arr[..., :-1]
    out[..., 0] = arr[..., -1]
    return out


def restrict(geometry: HalfGeometry, arr):
    """Restriction of a doubled-box field to the half grid."""
    m = geometry.points_per_axis
    return np.concatenate([arr[..., m // 2:], arr[..., :1]], axis=-1)


def _normal_hat(geometry: HalfGeometry, coeff, k):
    """Box coefficients times (i k_N)^k along the last (normal) axis, a
    fresh array unless k = 0."""
    return coeff * (1j * geometry.box.freq_1d()) ** k if k else coeff


def normal_row(geometry: HalfGeometry, coeff, k):
    """The k-th normal derivative of a field with box coefficients
    ``coeff`` (any leading axes), on the half grid, per tangential mode:
    one inverse transform along the normal axis, then ``restrict``."""
    hat = _normal_hat(geometry, coeff, k)
    # a normal derivative is a fresh array: transform in place
    return restrict(geometry, np.fft.ifft(hat, axis=-1,
                                          out=hat if k else None))


def mode_block(geometry: HalfGeometry, rows, total):
    """The block of total order ``total`` from ``rows[k][c]``, the k-th
    normal derivative of component c per tangential mode.

    Row k is weighted by sqrt(C(total, k)) |xi'|^(total - k), and the
    block has shape (total + 1, components) + row shape: by Parseval over
    the tangential modes its norm is that of the full derivative tensor,
    every ordered index tuple counted.
    """
    abs_xi = np.sqrt(geometry.tangential.xi_sq())[..., None]
    block = np.empty((total + 1, len(rows[0])) + rows[0][0].shape,
                     dtype=complex)
    for k in range(total + 1):
        weight = math.sqrt(math.comb(total, k)) * abs_xi ** (total - k)
        for c, row in enumerate(rows[k]):
            np.multiply(row, weight, out=block[k, c])
    return block


class _WholePart:
    """Whole-box lattice coefficients with derivative/trace evaluation."""

    def __init__(self, geometry: HalfGeometry, rho_hat, u_hat):
        self.geometry = geometry
        self.rho_hat = rho_hat
        self.u_hat = u_hat
        # the boundary z = 0 sits at sample index m/2 of the box axis
        # [-H, H), i.e. at the alternating-phase sum of the coefficients
        m = geometry.points_per_axis
        self._trace_phase = np.where(np.arange(m) % 2 == 0, 1.0, -1.0) / m

    def coeff(self, which):
        return self.rho_hat if which == "rho" else self.u_hat[which]

    def trace_hat(self, which, k):
        """Tangential coefficients of the k-th normal derivative of 'rho'
        or of a velocity component at the boundary."""
        hat = _normal_hat(self.geometry, self.coeff(which), k)
        return (hat * self._trace_phase).sum(axis=-1)


@dataclass
class PipelineSolution:
    """gamma = 0 solution: whole part plus corrector, with exact blocks.

    ``lam`` is a scalar or a batch array; every field then carries the
    batch axes ahead of the spatial axes.
    """

    geometry: HalfGeometry
    lam: complex
    params: MaterialParams
    whole: _WholePart
    corrector: ReducedSolution
    _rows: dict = field(default_factory=dict)

    def row(self, which, k: int = 0):
        """The k-th normal derivative of 'rho' or of a velocity component
        per tangential mode on the half grid: the whole part's
        ``normal_row`` plus the corrector sample, cached."""
        key = (which, k)
        if key not in self._rows:
            row = normal_row(self.geometry, self.whole.coeff(which), k)
            row += self.corrector.sample(which, k)
            self._rows[key] = row
        return self._rows[key]

    def field(self, which, orders=None):
        """A derivative of 'rho' or of a velocity component on the half grid.

        ``orders`` counts the derivatives per axis (none by default): the
        row of the normal order times the tangential factors, transformed
        along the tangential axes.
        """
        geo = self.geometry
        orders = tuple(orders or (0,) * geo.dim)
        out = self.row(which, orders[-1]).copy()
        for x, k in zip(geo.tangential.xi_mesh(), orders[:-1]):
            if k:
                out *= (1j * x[..., None]) ** k
        return np.fft.ifftn(out, axes=geo.tangential.field_axes, out=out)

    def rho(self):
        return self.field("rho")

    def u(self):
        return np.stack([self.field(c) for c in range(self.geometry.dim)])

    def grad_rho(self):
        n = self.geometry.dim
        return np.stack([self.field("rho", _d(n, ax)) for ax in range(n)])

    def _lam(self):
        return lam_axes(np.asarray(self.lam, dtype=complex),
                        self.geometry.dim)

    def _blocks(self, comps, top):
        """The ``mode_block``s of total order top and top - 1 from the rows
        of ``comps``, the second scaled by sqrt(lam), and lam times the
        rows themselves."""
        lam = self._lam()
        rows = [[self.row(c, k) for c in comps] for k in range(top + 1)]
        lower = mode_block(self.geometry, rows, top - 1)
        lower *= np.sqrt(lam)
        return (mode_block(self.geometry, rows, top), lower,
                np.stack([lam * row for row in rows[0]]))

    def s_blocks(self):
        """(third gradient, sqrt(lam) second gradient, lam rho) per mode."""
        third, second, zeroth = self._blocks(["rho"], 3)
        return third, second, zeroth[0]

    def t_blocks(self):
        """(second gradient, sqrt(lam) gradient, lam u) per mode."""
        return self._blocks(range(self.geometry.dim), 2)

    def output_norm(self) -> float:
        blocks = list(self.s_blocks()) + list(self.t_blocks())
        return float(np.sqrt(self.geometry.block_sq(blocks)))


def correct_boundary_data_hat(data: FullData, whole: _WholePart,
                              p: MaterialParams):
    """Boundary data minus the boundary rows of the whole part, as
    tangential coefficients."""
    tan = data.geometry.tangential
    stress, neumann = boundary_rows(
        mode_derivative(tan.xi_mesh(), whole.trace_hat), p,
        data.geometry.dim, 0.0)
    return (tan.fft(data.g[..., 0]) - np.stack(stress),
            tan.fft(data.h[..., 0]) - neumann)


class LambdaState:
    """What a gamma = 0 solve reads that depends only on (geometry, lam,
    params): the whole-space multipliers, built here, and the corrector's
    channel table, built by the first solution that samples it.  Every
    solve handed this state shares both; it holds nothing of the data.
    """

    def __init__(self, geometry: HalfGeometry, lam, p: MaterialParams,
                 dc: DerivedConstants | None = None):
        self.dc = derive_constants(p) if dc is None else dc
        self.multipliers = whole_multipliers(lam, p, geometry.box)
        self.table = {}


def solve_gamma_zero(data: FullData, lam: complex, p: MaterialParams,
                     dc: DerivedConstants | None = None,
                     state: LambdaState | None = None) -> PipelineSolution:
    """Whole-space solve on extended data plus the boundary corrector.

    ``lam`` is a scalar or an array that broadcasts against the data's
    batch shape; one call then solves every (datum, lam) member at once.
    ``state`` is the ``LambdaState`` of this geometry, lam and params,
    shared by every solve at that lam; a call without one builds its own.
    """
    geo = data.geometry
    state = LambdaState(geo, lam, p, dc) if state is None else state
    axes_box = tuple(range(-geo.dim, 0))
    d_hat = np.fft.fftn(extend_even(geo, data.d), axes=axes_box)
    f_hat = np.fft.fftn(extend_zero(geo, data.f), axes=axes_box)
    rho_hat, u_hat = apply_whole(state.multipliers, d_hat, f_hat)
    whole = _WholePart(geo, rho_hat, u_hat)
    g_t, h_t = correct_boundary_data_hat(data, whole, p)
    red = solve_reduced_hat(g_t, h_t, lam, geo.tangential,
                            geo.normal_samples(), p, state.dc, state.table)
    return PipelineSolution(geometry=geo, lam=lam, params=p, whole=whole,
                            corrector=red)


def fx_norm(data: FullData, lam: complex) -> float:
    """The lam-weighted data norm: RSS of the blocks of ``data_blocks``."""
    return float(np.sqrt(data.geometry.block_sq(data_blocks(data, lam))))


def data_blocks(data: FullData, lam: complex):
    """The weighted data tuple as a list of per-mode blocks (lam may be a
    batch).

    Blocks: d, f, grad g, |lam|^{1/2} g, second gradient of h,
    |lam|^{1/2} grad h, lam h, all from the rows of ``data_rows``: d
    and f are their tangential transforms, and the gradients are
    ``mode_block``s, as the solution blocks are.
    """
    geo = data.geometry
    lam = lam_axes(lam, geo.dim)
    sq = np.sqrt(np.abs(lam))
    (d_hat,) = data_rows(geo, data.d[None])
    (f_hat,) = data_rows(geo, data.f)
    g_rows = data_rows(geo, data.g, 1)
    h_rows = data_rows(geo, data.h[None], 2)
    grad_h = mode_block(geo, h_rows, 1)
    grad_h *= sq
    return [d_hat[0], f_hat, mode_block(geo, g_rows, 1), sq * g_rows[0],
            mode_block(geo, h_rows, 2), grad_h, lam * h_rows[0][0]]


def data_rows(geo: HalfGeometry, fields, top: int = 0):
    """Per-mode rows of a stack of half-space data fields (component axis
    first): row k, k = 0 .. top, is the k-th normal derivative.

    Row 0 is the tangential transform of each field.  Higher rows come
    from ``normal_row`` on the box coefficients of its even extension
    (the data generators keep that extension smooth).  A field that is
    identically zero is not transformed: its rows are zeros (every
    Neumann increment and every G output has zero d, zero h and zero
    tangential g).
    """
    live = [i for i in range(len(fields)) if np.any(fields[i])]
    part = fields if len(live) == len(fields) else fields[live]
    rows = [np.fft.fftn(part, axes=geo.tangential.field_axes)]
    if top:
        coeff = np.fft.fft(extend_even(geo, rows[0]), axis=-1)
        rows += [normal_row(geo, coeff, k) for k in range(1, top + 1)]
    if part is fields:
        return rows
    out = [np.zeros(fields.shape, dtype=complex) for _ in rows]
    for full, row in zip(out, rows):
        full[live] = row
    return out


@dataclass
class NeumannState:
    """Trace of the perturbation fixed-point iteration."""

    iterations: int
    increment_norm: float
    ratio_history: list

    def to_json(self):
        return {"iterations": self.iterations,
                "increment_norm": self.increment_norm,
                "ratio_history": list(self.ratio_history)}


def apply_G(data: FullData, lam: complex, p: MaterialParams,
            dc: DerivedConstants | None = None,
            state: LambdaState | None = None) -> FullData:
    """One application of the pressure-coupling map.

    Output rows: (0, -gamma grad rho0, gamma rho0 n, 0) where rho0 is the
    gamma = 0 density for the given data, solved with ``state`` (see
    solve_gamma_zero) and dropped on return.
    """
    geo = data.geometry
    sol = solve_gamma_zero(data, lam, p, dc, state=state)
    n = geo.dim
    out = FullData.zeros(geo)
    grad = sol.grad_rho()
    out.f = -p.gamma * grad
    gn = np.zeros((n,) + geo.half_shape, dtype=complex)
    gn[n - 1] = -p.gamma * sol.rho()  # outward normal is -e_N
    out.g = gn
    return out


def solve_general(data: FullData, lam: complex, p: MaterialParams,
                  dc: DerivedConstants | None = None):
    """Resolvent solve with the pressure-gradient term, by fixed point.

    Iterates F <- F0 + G(lam) F; at the fixed point the gamma = 0 solve
    of F solves the full system.  Raises NeumannDiverged after five
    consecutive non-contracting steps.  Every solve is at the same lam,
    so all of them share one ``LambdaState``: one set of whole-space
    multipliers and one channel table per call.
    """
    dc = derive_constants(p) if dc is None else dc
    if p.gamma == 0.0:
        sol = solve_gamma_zero(data, lam, p, dc)
        return sol, NeumannState(iterations=1, increment_norm=0.0,
                                 ratio_history=[0.0])
    base_norm = fx_norm(data, lam)
    if base_norm == 0.0:
        base_norm = 1.0
    current = data
    prev_increment = None
    ratios = []
    bad_streak = 0
    state = LambdaState(data.geometry, lam, p, dc)
    for it in range(1, MAX_NEUMANN_ITER + 1):
        nxt = data.combine(apply_G(current, lam, p, state=state))
        increment = nxt.diff_norm(current, lam)
        if prev_increment is not None and prev_increment > 0:
            ratio = increment / prev_increment
            ratios.append(ratio)
            if ratio >= 1.0:
                bad_streak += 1
                if bad_streak >= 5:
                    raise NeumannDiverged(
                        "no contraction after five consecutive steps; "
                        "|lambda| below the perturbation threshold")
            else:
                bad_streak = 0
        prev_increment = increment
        current = nxt
        if increment < NEUMANN_TOL * base_norm:
            final = solve_gamma_zero(current, lam, p, state=state)
            return final, NeumannState(iterations=it,
                                       increment_norm=increment,
                                       ratio_history=ratios)
    raise NeumannDiverged(
        f"no convergence within {MAX_NEUMANN_ITER} iterations")


def one_step_ratio(data: FullData, lam: complex, p: MaterialParams,
                   dc: DerivedConstants | None = None) -> float:
    """||G F|| / ||F|| in the lam-weighted data norm."""
    denom = fx_norm(data, lam)
    g = apply_G(data, lam, p, dc)
    return fx_norm(g, lam) / denom


def contraction_probe(p: MaterialParams, geometry: HalfGeometry,
                      lambda_list, seed: int = 0):
    """Empirical one-application ratios on random unit data, per lambda.

    G is gamma times a map of the data, so at gamma = 0 every ratio is 0
    and says nothing: that is refused.
    """
    if p.gamma == 0.0:
        raise ValueError("the contraction probe needs params.gamma != 0; "
                         "G vanishes at gamma = 0")
    dc = derive_constants(p)
    rows = []
    for lam in lambda_list:
        rng = np.random.default_rng(seed)
        data = random_full_data(geometry, rng)
        rows.append((complex(lam), one_step_ratio(data, complex(lam), p, dc)))
    return rows


def auto_lambda0(p: MaterialParams, geometry: HalfGeometry,
                 seed: int = 0) -> float:
    """The first modulus floor, LAMBDA0_START doubled as often as
    needed, at which one G-application on one random datum contracts to
    a ratio of at most LAMBDA0_TARGET.

    The ratio scales linearly in gamma, so for moderate gamma the first
    test passes and the result is LAMBDA0_START itself (0.5 for gamma
    0.05 to 0.5 on the reference parameters, ratios 0.021 to 0.21): a
    floor at which the iteration is seen to contract, not an estimate
    of the perturbation threshold.
    """
    dc = derive_constants(p)
    rng = np.random.default_rng(seed)
    data = random_full_data(geometry, rng)
    lam0 = LAMBDA0_START
    for _ in range(LAMBDA0_DOUBLINGS):
        if one_step_ratio(data, complex(lam0), p, dc) <= LAMBDA0_TARGET:
            return lam0
        lam0 *= 2.0
    raise NeumannDiverged("no contraction within the doubling budget")


def random_full_data(geometry: HalfGeometry, rng,
                     batch: int | None = None) -> FullData:
    """Random band-limited data whose extensions are kink-free.

    d, g, h are restrictions of normally-even box fields (so the spectral
    even-extension derivative in the data norm is exact); f is a
    restriction of a generic band-limited box field.  The R-bound
    estimates grow with DATA_KMAX: the data norm measures d in L2 only,
    on which the solution operators are unbounded.  With ``batch`` the
    result carries one batch axis of that many data.  All coefficients
    come from one ``standard_normal`` draw ordered (datum, field, real
    then imaginary part, modes), the stream order of repeated unbatched
    calls, so a batch equals that many single draws bit for bit.
    """
    geo = geometry
    n = geo.dim
    m = geo.points_per_axis
    k = np.fft.fftfreq(m, d=1.0 / m).astype(int)
    sel_t = np.where(np.abs(k) <= DATA_KMAX)[0]
    sel_n = np.where(np.abs(k) <= DATA_K_NORMAL)[0]
    idx = np.ix_(*([sel_t] * (n - 1) + [sel_n]))
    shape = tuple(len(s) for s in ([sel_t] * (n - 1) + [sel_n]))
    # per datum the fields d, f_1..f_n, g_1..g_n, h, each real part then
    # imaginary part, in one draw
    count = 1 if batch is None else batch
    z = rng.standard_normal((count, 2 * n + 2, 2) + shape)
    coeffs = np.zeros((count, 2 * n + 2) + geo.box.shape, dtype=complex)
    coeffs[(slice(None), slice(None)) + idx] = z[:, :, 0] + 1j * z[:, :, 1]
    even = [0] + list(range(n + 1, 2 * n + 2))
    flip = (-k) % m  # normal-axis reflection
    coeffs[:, even] = 0.5 * (coeffs[:, even] + coeffs[:, even][..., flip])
    fields = restrict(geo, np.fft.ifftn(coeffs, axes=tuple(range(-n, 0))))
    if batch is None:
        fields = fields[0]
    fields = np.moveaxis(fields, -n - 1, 0)  # field axis first
    return FullData(geometry=geo, d=fields[0], f=fields[1:n + 1],
                    g=fields[n + 1:2 * n + 1], h=fields[2 * n + 1])


@dataclass(frozen=True)
class FullResidual:
    """Residual rows of the rescaled system for a pipeline solution."""

    mass: float
    momentum: float
    stress: float
    neumann: float
    data_scale: float

    def max_relative(self) -> float:
        return max(self.mass, self.momentum, self.stress, self.neumann) \
            / self.data_scale

    def to_json(self):
        return {"mass": self.mass, "momentum": self.momentum,
                "stress": self.stress, "neumann": self.neumann,
                "data_scale": self.data_scale}


def residual_full(sol: PipelineSolution, data: FullData,
                  gamma: float | None = None) -> FullResidual:
    """Max-norm residuals of all four rows with the gamma term included.

    Each row is assembled per tangential mode from the solution's rows
    and takes one tangential inverse transform.  For a batched solution
    each row is the maximum over the members.
    """
    p = sol.params
    gamma = p.gamma if gamma is None else gamma
    tan = sol.geometry.tangential
    n = sol.geometry.dim
    xi = tan.xi_mesh()
    mass, momentum = interior_rows(
        mode_derivative(tuple(x[..., None] for x in xi), sol.row),
        sol._lam(), p, n, gamma)
    # boundary rows at the first normal sample
    stress, neumann = boundary_rows(
        mode_derivative(xi, lambda w, k: sol.row(w, k)[..., 0]), p, n,
        gamma)

    def worst(rows, rhs, ifft):
        return max(float(np.max(np.abs(ifft(r) - d)))
                   for r, d in zip(rows, rhs))

    def interior(row):
        return np.fft.ifftn(row, axes=tan.field_axes)

    scale = max(float(np.max(np.abs(data.d))), float(np.max(np.abs(data.f))),
                float(np.max(np.abs(data.g))), float(np.max(np.abs(data.h))),
                1e-300)
    return FullResidual(mass=worst([mass], [data.d], interior),
                        momentum=worst(momentum, data.f, interior),
                        stress=worst(stress, data.g[..., 0], tan.ifft),
                        neumann=worst([neumann], [data.h[..., 0]], tan.ifft),
                        data_scale=scale)
