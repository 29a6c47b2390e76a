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

Every solution field comes from one kernel, ``PipelineSolution._evaluate``:
a list of (which, orders) specs becomes one fresh stack.  Cached specs
are copied in; each other (field, normal order) slot is
inverse-transformed along the normal axis alone and restricted into its
row, and those rows are transformed along the tangential axes in place.
``field`` caches its row; the norm blocks are consecutive rows of one
stack, scaled in place and never cached.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, NeumannDiverged
from .halfspace import (NormalSamples, ReducedSolution, TangentialGrid,
                        solve_reduced_hat)
from .model import (DerivedConstants, MaterialParams, _d, _orders,
                    boundary_rows, derive_constants, interior_rows,
                    mode_derivative)
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

    def block_sq(self, blocks) -> float:
        """Sum of squared half-box L2 norms over a sequence of blocks.

        The leading (component and batch) axes of each block are summed.
        """
        w = self.normal_weights() * self.tangential.cell_measure()
        return sum(float(np.sum(np.abs(b) ** 2 * w)) for b in blocks)

    def member_sq(self, blocks):
        """Squared half-box L2 norm of each batch member, summed over a
        sequence of blocks: one value per index of the member axis, the
        axis just before the spatial axes.

        Each member is summed alone, so its value does not depend on the
        other members of the batch.
        """
        w = self.normal_weights() * self.tangential.cell_measure()
        axis = -self.dim - 1
        return sum(np.moveaxis(np.abs(b) ** 2 * w, axis, 0).reshape(
            b.shape[axis], -1).sum(axis=1) for b in blocks)

    def half_l2(self, arr) -> float:
        """L2 over the half box; leading axes are components."""
        return float(np.sqrt(self.block_sq([arr])))


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


def restrict(geometry: HalfGeometry, arr, out=None):
    """Restriction of a doubled-box field to the half grid (into ``out``
    when given)."""
    m = geometry.points_per_axis
    return np.concatenate([arr[..., m // 2:], arr[..., :1]], axis=-1,
                          out=out)


class _WholePart:
    """Whole-box lattice coefficients with derivative/trace evaluation."""

    def __init__(self, geometry: HalfGeometry, rho_hat, u_hat):
        self.geometry = geometry
        self.rho_hat = rho_hat
        self.u_hat = u_hat
        self._ik = 1j * geometry.box.freq_1d()
        # the boundary z = 0 sits at sample index m/2 of the box axis
        # [-H, H), i.e. at the alternating-phase sum of the coefficients
        m = geometry.points_per_axis
        self._trace_phase = np.where(np.arange(m) % 2 == 0, 1.0, -1.0) / m

    def _deriv_hat(self, coeff, orders):
        """Multiply by (i xi_axis)^k per axis, each a 1-D factor broadcast
        along its axis of the box."""
        out = coeff
        for axis, k in enumerate(orders):
            if k:
                out = out * (self._ik ** k).reshape(
                    (-1,) + (1,) * (len(orders) - 1 - axis))
        return out

    def coeff(self, which):
        return self.rho_hat if which == "rho" else self.u_hat[which]

    def trace_hat(self, which, k):
        """Tangential coefficients of the k-th normal derivative of 'rho'
        or of a velocity component at the boundary."""
        normal = (0,) * (self.geometry.dim - 1) + (k,)
        hat = self._deriv_hat(self.coeff(which), normal)
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
    _cache: dict = field(default_factory=dict)

    def _evaluate(self, specs):
        """The (which, orders) fields of ``specs`` as one fresh stack, row
        i holding spec i.

        A row whose spec is cached is copied from the cache.  Tangential
        derivatives commute with the normal-axis inverse, so each other
        (field, normal order) slot goes through that inverse alone,
        straight into the half grid of the first row that reads it, where
        the corrector sample joins it; later rows of the slot copy that
        row.  These rows take their tangential factors in place, and each
        run of them is transformed along the tangential axes in place.
        """
        geo = self.geometry
        whole, corr = self.whole, self.corrector
        normal = (0,) * (geo.dim - 1)
        xi = geo.tangential.xi_mesh()
        out = np.empty((len(specs),) + whole.rho_hat.shape[:-geo.dim]
                       + geo.half_shape, dtype=complex)
        first = {}
        for i, (which, orders) in enumerate(specs):
            slot = (which, orders[-1])
            if (which, orders) in self._cache:
                out[i] = self._cache[(which, orders)]
            elif slot in first:
                out[i] = out[first[slot]]
            else:
                hat = whole._deriv_hat(whole.coeff(which),
                                       normal + orders[-1:])
                # a normal derivative is a fresh array: transform in place
                restrict(geo, np.fft.ifft(hat, axis=-1,
                                          out=hat if orders[-1] else None),
                         out=out[i])
                out[i] += corr.sample(*slot)
                first[slot] = i
        start = 0
        for fresh, run in itertools.groupby(
                specs, key=lambda spec: spec not in self._cache):
            run = list(run)
            rows = out[start:start + len(run)]
            start += len(run)
            if not fresh:
                continue
            for row, (_, orders) in zip(rows, run):
                for axis, k in enumerate(orders[:-1]):
                    if k:
                        row *= (1j * xi[axis][..., None]) ** k
            np.fft.ifftn(rows, axes=geo.tangential.field_axes, out=rows)
        return out

    def field(self, which, orders=None):
        """A derivative of 'rho' or of a velocity component on the half grid.

        ``orders`` counts the derivatives per axis (none by default).
        """
        key = (which, tuple(orders or (0,) * self.geometry.dim))
        if key not in self._cache:
            self._cache[key] = self._evaluate([key])[0]
        return self._cache[key]

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

    def _blocks(self, comps, totals):
        """One block per total order: each distinct derivative of each
        component, rows scaled by the root of their multiplicity, so a
        block's norm is the norm of the full derivative tensor.

        The blocks are consecutive rows of one ``_evaluate`` stack.
        """
        rows = [[(c, o, root) for c in comps
                 for o, root in _orders(self.geometry.dim, total)]
                for total in totals]
        stack = self._evaluate([(c, o) for block in rows
                                for c, o, _ in block])
        out, start = [], 0
        for block in rows:
            arr = stack[start:start + len(block)]
            start += len(block)
            roots = np.array([root for _, _, root in block])
            out.append(np.multiply(
                roots.reshape((-1,) + (1,) * (arr.ndim - 1)), arr, out=arr))
        return out

    def s_blocks(self):
        """(third gradient, sqrt(lam) second gradient, lam rho) stacked."""
        lam = self._lam()
        third, second, zeroth = self._blocks(["rho"], (3, 2, 0))
        return (third, np.multiply(np.sqrt(lam), second, out=second),
                np.multiply(lam, zeroth[0], out=zeroth[0]))

    def t_blocks(self):
        """(second gradient, sqrt(lam) gradient, lam u) stacked."""
        lam = self._lam()
        second, first, zeroth = self._blocks(range(self.geometry.dim),
                                             (2, 1, 0))
        return (second, np.multiply(np.sqrt(lam), first, out=first),
                np.multiply(lam, zeroth, out=zeroth))

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
    """The weighted data tuple as a list of arrays (lam may be a batch).

    Blocks: d, f, grad g, |lam|^{1/2} g, second gradient of h,
    |lam|^{1/2} grad h, lam h.  The derivatives are laid out as the
    solution blocks are: each distinct one once, scaled by the root of
    its multiplicity, so a block's norm is the full tensor's.
    """
    geo = data.geometry
    lam = lam_axes(lam, geo.dim)
    sq = np.sqrt(np.abs(lam))
    (grad_g,) = _derivative_blocks(geo, data.g, (1,))
    hess_h, grad_h = _derivative_blocks(geo, data.h[None], (2, 1))
    return [data.d, data.f, grad_g, sq * data.g, hess_h, sq * grad_h,
            lam * data.h]


def _derivative_blocks(geo: HalfGeometry, fields, totals):
    """One block per total order: each distinct derivative of a stack of
    half-space data fields (component axis first), rows scaled by the
    root of their multiplicity.

    Normal derivatives are spectral on the even extension (the data
    generators keep it smooth): one forward transform per field, one
    inverse per normal order.  Tangential factors multiply the
    tangential coefficients; pure-normal entries skip those transforms.
    A field that is identically zero is not transformed: its rows are
    zeros (every Neumann increment and every G output has zero h and
    zero tangential g).
    """
    live = [i for i in range(len(fields)) if np.any(fields[i])]
    if len(live) < len(fields):
        out = [np.zeros((len(list(_orders(geo.dim, t))),) + fields.shape,
                        dtype=complex) for t in totals]
        if live:
            for block, rows in zip(out, _derivative_blocks(
                    geo, fields[live], totals)):
                block[:, live] = rows
        return out
    axes = geo.tangential.field_axes
    xi = geo.tangential.xi_mesh()
    k_n = 1j * geo.box.freq_1d()
    ext_hat = np.fft.fft(extend_even(geo, fields), axis=-1)
    normal = [fields] + [restrict(geo, np.fft.ifft(k_n ** k * ext_hat,
                                                   axis=-1))
                         for k in range(1, max(totals) + 1)]
    hats = [np.fft.fftn(f, axes=axes) for f in normal[:-1]]

    def entry(orders):
        *tangential, k = orders
        if not any(tangential):
            return normal[k]
        hat = hats[k]
        for x, j in zip(xi, tangential):
            if j:
                hat = hat * (1j * x[..., None]) ** j
        return np.fft.ifftn(hat, axes=axes)

    return [np.stack([root * entry(o) for o, root in _orders(geo.dim, t)])
            for t in totals]


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
    """Empirical one-application ratios on random unit data, per lambda."""
    dc = derive_constants(p)
    rows = []
    for lam in lambda_list:
        rng = np.random.default_rng(seed)
        data = random_full_data(geometry, rng)
        rows.append((complex(lam), one_step_ratio(data, complex(lam), p, dc)))
    return rows


def auto_lambda0(p: MaterialParams, geometry: HalfGeometry,
                 seed: int = 0) -> float:
    """Double the modulus floor until one G-application contracts.

    The true threshold depends on unobservable constants; locating the
    contraction empirically is the honest substitute.
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

    For a batched solution each row is the maximum over the members.
    """
    p = sol.params
    gamma = p.gamma if gamma is None else gamma
    n = sol.geometry.dim
    mass, momentum = interior_rows(sol.field, sol._lam(), p, n, gamma)
    # boundary rows at the first normal sample
    stress, neumann = boundary_rows(lambda w, o: sol.field(w, o)[..., 0],
                                    p, n, gamma)

    def worst(rows, rhs):
        return max(float(np.max(np.abs(r - d))) for r, d in zip(rows, rhs))

    scale = max(float(np.max(np.abs(data.d))), float(np.max(np.abs(data.f))),
                float(np.max(np.abs(data.g))), float(np.max(np.abs(data.h))),
                1e-300)
    return FullResidual(mass=worst([mass], [data.d]),
                        momentum=worst(momentum, data.f),
                        stress=worst(stress, data.g[..., 0]),
                        neumann=worst([neumann], [data.h[..., 0]]),
                        data_scale=scale)
