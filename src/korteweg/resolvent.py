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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, NeumannDiverged
from .halfspace import (NormalSamples, ReducedSolution, TangentialGrid,
                        solve_reduced_hat)
from .model import (DerivedConstants, MaterialParams, Sector, boundary_rows,
                    derive_constants, interior_rows, mode_derivative)
from .symbols import lam_axes
from .wholespace import BoxGrid, solve_whole_hat


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


def restrict(geometry: HalfGeometry, arr):
    """Restriction of a doubled-box field to the half grid."""
    m = geometry.points_per_axis
    half = arr[..., m // 2:]
    return np.concatenate([half, arr[..., :1]], axis=-1)


class _WholePart:
    """Whole-box lattice coefficients with derivative/trace evaluation."""

    def __init__(self, geometry: HalfGeometry, rho_hat, u_hat):
        self.geometry = geometry
        self.rho_hat = rho_hat
        self.u_hat = u_hat
        self._mesh = geometry.box.freq_mesh()
        # the boundary z = 0 sits at sample index m/2 of the box axis
        # [-H, H), i.e. at the alternating-phase sum of the coefficients
        m = geometry.points_per_axis
        self._trace_phase = np.where(np.arange(m) % 2 == 0, 1.0, -1.0) / m

    def _deriv_hat(self, coeff, orders):
        out = coeff
        for axis, k in enumerate(orders):
            if k:
                out = out * (1j * self._mesh[axis]) ** k
        return out

    def coeff(self, which):
        return self.rho_hat if which == "rho" else self.u_hat[which]

    def trace_hat(self, which, k):
        """Tangential coefficients of the k-th normal derivative of 'rho'
        or of a velocity component at the boundary."""
        normal = (0,) * (self.geometry.dim - 1) + (k,)
        hat = self._deriv_hat(self.coeff(which), normal)
        return (hat * self._trace_phase).sum(axis=-1)


class _CorrectorPart:
    """Reduced solution with derivative evaluation on the half grid."""

    def __init__(self, geometry: HalfGeometry, red: ReducedSolution):
        self.geometry = geometry
        self.red = red
        self._x = geometry.normal_samples().x
        self._channels = None

    def channel_values(self) -> dict:
        if self._channels is None:
            from .halfspace import channel_table
            self._channels = channel_table(self.red.roots, self._x)
        return self._channels

    def normal_hat(self, which, normal_order):
        """(modes..., x) samples of a normal derivative of 'rho' or comp."""
        return self.red.profile(which, normal_order).evaluate_with(
            self.channel_values(), self._x)


@dataclass
class PipelineSolution:
    """gamma = 0 solution: whole part plus corrector, with exact blocks.

    ``lam`` is a scalar or a batch array; every field then carries the
    batch axes ahead of the spatial axes.
    """

    geometry: HalfGeometry
    lam: complex
    params: MaterialParams
    dc: DerivedConstants
    whole: _WholePart
    corrector: _CorrectorPart
    _cache: dict = field(default_factory=dict)

    def _field_batch(self, specs):
        """Fill the cache for many (which, orders) pairs with batched ffts.

        Tangential derivatives commute with the normal-axis inverse, so
        the whole part goes through that inverse once per (field, normal
        order) and is restricted to the half grid, where the corrector
        joins it; each spec then takes its tangential factors and one
        tangential inverse transforms the stack.  Only the normal-order
        stack ever spans the full box.
        """
        todo = [s for s in dict.fromkeys(specs) if s not in self._cache]
        if not todo:
            return
        geo = self.geometry
        whole, corr = self.whole, self.corrector
        slot = {g: i for i, g in enumerate(
            dict.fromkeys((which, orders[-1]) for which, orders in todo))}
        normal = (0,) * (geo.dim - 1)
        base = restrict(geo, np.fft.ifft(np.stack(
            [whole._deriv_hat(whole.coeff(which), normal + (k,))
             for which, k in slot]), axis=-1))
        for (which, k), i in slot.items():
            base[i] += corr.normal_hat(which, k)
        xi = geo.tangential.xi_mesh()
        hats = np.empty((len(todo),) + base.shape[1:], dtype=complex)
        for i, (which, orders) in enumerate(todo):
            hats[i] = base[slot[(which, orders[-1])]]
            for axis, k in enumerate(orders[:-1]):
                if k:
                    hats[i] *= (1j * xi[axis][..., None]) ** k
        del base
        fields = np.fft.ifftn(hats, axes=tuple(range(-geo.dim, -1)))
        for i, spec in enumerate(todo):
            self._cache[spec] = fields[i]

    def field(self, which, orders=None):
        """A derivative of 'rho' or of a velocity component on the half grid.

        ``orders`` counts the derivatives per axis (none by default).
        """
        key = (which, tuple(orders or (0,) * self.geometry.dim))
        if key not in self._cache:
            self._field_batch([key])
        return self._cache[key]

    def rho(self):
        return self.field("rho")

    def u(self):
        return np.stack([self.field(c) for c in range(self.geometry.dim)])

    def grad_rho(self):
        n = self.geometry.dim
        return np.stack([self.field("rho", _unit(n, ax)) for ax in range(n)])

    def _lam(self):
        return lam_axes(np.asarray(self.lam, dtype=complex),
                        self.geometry.dim)

    def _blocks(self, comps, totals):
        """One block per total order: each distinct derivative of each
        component, from one batched evaluation.

        Rows are scaled by the root of their multiplicity, so a block's
        norm is the norm of the full derivative tensor.
        """
        rows = [[(c, o, root) for c in comps
                 for o, root in _orders(self.geometry.dim, total)]
                for total in totals]
        self._field_batch([(c, o) for block in rows for c, o, _ in block])
        out = []
        for block in rows:
            arr = np.stack([self._cache[(c, o)] for c, o, _ in block])
            arr *= np.array([root for _, _, root in block]).reshape(
                (-1,) + (1,) * (arr.ndim - 1))
            out.append(arr)
        return out

    def s_blocks(self):
        """(third gradient, sqrt(lam) second gradient, lam rho) stacked."""
        lam = self._lam()
        third, second, zeroth = self._blocks(["rho"], (3, 2, 0))
        return third, np.sqrt(lam) * second, lam * zeroth[0]

    def t_blocks(self):
        """(second gradient, sqrt(lam) gradient, lam u) stacked."""
        lam = self._lam()
        second, first, zeroth = self._blocks(range(self.geometry.dim),
                                             (2, 1, 0))
        return second, np.sqrt(lam) * first, lam * zeroth

    def output_norm(self) -> float:
        blocks = list(self.s_blocks()) + list(self.t_blocks())
        return float(np.sqrt(self.geometry.block_sq(blocks)))


def _unit(n, axis):
    o = [0] * n
    o[axis] = 1
    return tuple(o)


def _orders(n, total):
    """Each derivative count-vector of the given total order, once.

    Yields (orders, root): root is the square root of the number of
    ordered index tuples that give the same derivative.
    """
    for combo in itertools.product(range(total + 1), repeat=n):
        if sum(combo) == total:
            count = math.factorial(total)
            for c in combo:
                count //= math.factorial(c)
            yield combo, math.sqrt(count)


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


def solve_gamma_zero(data: FullData, lam: complex, p: MaterialParams,
                     dc: DerivedConstants | None = None,
                     sector: Sector | None = None) -> PipelineSolution:
    """Whole-space solve on extended data plus the boundary corrector.

    ``lam`` is a scalar or an array that broadcasts against the data's
    batch shape; one call then solves every (datum, lam) member at once.
    """
    dc = derive_constants(p) if dc is None else dc
    geo = data.geometry
    axes_box = tuple(range(-geo.dim, 0))
    d_hat = np.fft.fftn(extend_even(geo, data.d), axes=axes_box)
    f_hat = np.fft.fftn(extend_zero(geo, data.f), axes=axes_box)
    rho_hat, u_hat = solve_whole_hat(d_hat, f_hat, lam, p, geo.box)
    whole = _WholePart(geo, rho_hat, u_hat)
    g_t, h_t = correct_boundary_data_hat(data, whole, p)
    red = solve_reduced_hat(g_t, h_t, lam, geo.tangential,
                            geo.normal_samples(), p, dc, sector=sector)
    return PipelineSolution(geometry=geo, lam=lam, params=p, dc=dc,
                            whole=whole, corrector=_CorrectorPart(geo, red))


def fx_norm(data: FullData, lam: complex) -> float:
    """The lam-weighted data norm: RSS of the listed blocks.

    Blocks: d, f, grad g, lam^{1/2} g, second-gradient of h,
    lam^{1/2} grad h, lam h.  Normal derivatives of the data fields are
    evaluated spectrally on the even extension.
    """
    return float(np.sqrt(data.geometry.block_sq(data_blocks(data, lam))))


def data_blocks(data: FullData, lam: complex):
    """The weighted data tuple as a list of arrays (lam may be a batch)."""
    geo = data.geometry
    lam = lam_axes(lam, geo.dim)
    sq = np.sqrt(np.abs(lam))
    grads_g = _data_gradient(geo, data.g)
    grads_h = _data_gradient(geo, data.h[None])[:, 0]
    hess_h = _data_hessian(geo, data.h)
    return [data.d, data.f, grads_g, sq * data.g, hess_h,
            sq * grads_h, lam * data.h]


def _data_gradient(geo: HalfGeometry, fields):
    """Gradient of half-space data fields (components leading axis).

    Tangential derivatives are spectral on the half grid; the normal
    derivative is spectral on the even extension (data generators keep
    the extension smooth).
    """
    tan = geo.tangential
    xi = tan.xi_mesh()
    n = geo.dim
    out = np.empty((n,) + fields.shape, dtype=complex)
    f_hat = tan.fft(fields)
    for ax in range(n - 1):
        out[ax] = tan.ifft(1j * xi[ax][..., None] * f_hat)
    k_n = geo.box.freq_1d()
    ext_hat = np.fft.fft(extend_even(geo, fields), axis=-1)
    out[n - 1] = restrict(geo, np.fft.ifft(1j * k_n * ext_hat, axis=-1))
    return out


def _data_hessian(geo: HalfGeometry, scalar):
    """Second derivatives of a scalar half-space data field.

    Normal derivatives act on the even extension directly (never on the
    odd first-derivative field, whose even extension would kink).
    """
    tan = geo.tangential
    xi = tan.xi_mesh()
    n = geo.dim
    k_n = geo.box.freq_1d()
    f_hat = tan.fft(scalar)
    ext_hat = np.fft.fft(extend_even(geo, scalar), axis=-1)
    d_norm = restrict(geo, np.fft.ifft(1j * k_n * ext_hat, axis=-1))
    d_norm_hat = tan.fft(d_norm)
    out = np.empty((n, n) + scalar.shape, dtype=complex)
    for a in range(n - 1):
        for b in range(n - 1):
            out[a, b] = tan.ifft(-xi[a][..., None] * xi[b][..., None]
                                 * f_hat)
        out[a, n - 1] = tan.ifft(1j * xi[a][..., None] * d_norm_hat)
        out[n - 1, a] = out[a, n - 1]
    out[n - 1, n - 1] = restrict(
        geo, np.fft.ifft((1j * k_n) ** 2 * ext_hat, axis=-1))
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
            sol: PipelineSolution | None = None) -> FullData:
    """One application of the pressure-coupling map.

    Output rows: (0, -gamma grad rho0, gamma rho0 n, 0) where rho0 is the
    gamma = 0 density for the given data.
    """
    geo = data.geometry
    if sol is None:
        sol = solve_gamma_zero(data, lam, p, dc)
    n = geo.dim
    out = FullData.zeros(geo)
    grad = sol.grad_rho()
    out.f = -p.gamma * grad
    gn = np.zeros((n,) + geo.half_shape, dtype=complex)
    gn[n - 1] = -p.gamma * sol.rho()  # outward normal is -e_N
    out.g = gn
    return out


def solve_general(data: FullData, lam: complex, p: MaterialParams,
                  dc: DerivedConstants | None = None, max_iter: int = 64,
                  tol: float = 1e-10):
    """Resolvent solve with the pressure-gradient term, by fixed point.

    Iterates F <- F0 + G(lam) F; at the fixed point the gamma = 0 solve
    of F solves the full system.  Raises NeumannDiverged after five
    consecutive non-contracting steps.
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
    for it in range(1, max_iter + 1):
        sol = solve_gamma_zero(current, lam, p, dc)
        gterm = apply_G(current, lam, p, dc, sol=sol)
        nxt = data.combine(gterm)
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
        if increment < tol * base_norm:
            final = solve_gamma_zero(current, lam, p, dc)
            return final, NeumannState(iterations=it,
                                       increment_norm=increment,
                                       ratio_history=ratios)
    raise NeumannDiverged(f"no convergence within {max_iter} iterations")


def one_step_ratio(data: FullData, lam: complex, p: MaterialParams,
                   dc: DerivedConstants | None = None) -> float:
    """||G F|| / ||F|| in the lam-weighted data norm."""
    denom = fx_norm(data, lam)
    g = apply_G(data, lam, p, dc)
    return fx_norm(g, lam) / denom


def contraction_probe(p: MaterialParams, geometry: HalfGeometry,
                      lambda_list, seed: int = 0,
                      dc: DerivedConstants | None = None):
    """Empirical one-application ratios on random unit data, per lambda."""
    dc = derive_constants(p) if dc is None else dc
    rows = []
    for lam in lambda_list:
        rng = np.random.default_rng(seed)
        data = random_full_data(geometry, rng)
        rows.append((complex(lam), one_step_ratio(data, complex(lam), p, dc)))
    return rows


def auto_lambda0(p: MaterialParams, geometry: HalfGeometry,
                 start: float = 0.5, target: float = 0.45,
                 max_doublings: int = 40, seed: int = 0,
                 dc: DerivedConstants | None = None) -> float:
    """Double the modulus floor until one G-application contracts.

    The true threshold depends on unobservable constants; locating the
    contraction empirically is the honest substitute.
    """
    dc = derive_constants(p) if dc is None else dc
    rng = np.random.default_rng(seed)
    data = random_full_data(geometry, rng)
    lam0 = start
    for _ in range(max_doublings):
        if one_step_ratio(data, complex(lam0), p, dc) <= target:
            return lam0
        lam0 *= 2.0
    raise NeumannDiverged("no contraction within the doubling budget")


def random_full_data(geometry: HalfGeometry, rng, kmax: int = 4,
                     k_normal: int = 4, batch: int | None = None) -> FullData:
    """Random band-limited data whose extensions are kink-free.

    d, g, h are restrictions of normally-even box fields (so the spectral
    even-extension derivative in the data norm is exact); f is a
    restriction of a generic band-limited box field.  With ``batch`` the
    result carries one batch axis of that many data, drawn one datum after
    another exactly as by repeated unbatched calls.
    """
    geo = geometry
    n = geo.dim
    m = geo.points_per_axis
    k = np.fft.fftfreq(m, d=1.0 / m).astype(int)
    sel_t = np.where(np.abs(k) <= kmax)[0]
    sel_n = np.where(np.abs(k) <= k_normal)[0]
    idx = np.ix_(*([sel_t] * (n - 1) + [sel_n]))
    shape = tuple(len(s) for s in ([sel_t] * (n - 1) + [sel_n]))
    # per datum the fields d, f_1..f_n, g_1..g_n, h, in draw order
    count = 1 if batch is None else batch
    coeffs = np.zeros((count, 2 * n + 2) + geo.box.shape, dtype=complex)
    for b in range(count):
        for c in range(2 * n + 2):
            coeffs[(b, c) + idx] = (rng.standard_normal(shape)
                                    + 1j * rng.standard_normal(shape))
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
    """Max-norm residuals of all four rows with the gamma term included."""
    p = sol.params
    gamma = p.gamma if gamma is None else gamma
    n = sol.geometry.dim
    mass, momentum = interior_rows(sol.field, sol.lam, p, n, gamma)
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
