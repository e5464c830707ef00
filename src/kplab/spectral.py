"""Anisotropic periodic spectral core.

The physical domain is a periodic box [0, Lx) x [0, Ly1) x [0, Ly2).
Fields are represented by Fourier-series coefficients c(kx, ky1, ky2) so that

    u(x, y1, y2) = sum_k c(k) exp(i (xi x + eta1 y1 + eta2 y2)),

with xi = kx * 2pi/Lx and eta_i = ky_i * 2pi/Ly_i.  Coefficient arrays are
stored in FFT (natural) order; every public entry point addresses modes by
physical wavenumber, never by array index.

Two hard structural invariants hold for every field in the package:

* the xi = 0 plane is identically zero (so 1/xi symbols are well defined),
* Nyquist planes are identically zero (so Hermitian symmetry is exact).

The linear flow multiplies each coefficient by exp(i t w(xi, eta)) with the
dispersion symbol w(xi, eta) = xi^3 - |eta|^2/xi, and is exactly unitary.
`GridGeometry.phase` forms that phase factored per axis, with no w mesh.
"""

from __future__ import annotations

import math
import numbers
import struct
import warnings
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigurationError, DomainError, PreconditionError

SNAPSHOT_MAGIC = b"KP3F"
SNAPSHOT_VERSION = 1

_DROPPED_MASS_WARN = 1e-10


def require_number(value, name: str, kind=numbers.Real) -> None:
    """Refuse a configuration value that is not a number of the given kind."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, kind):
        what = "an integer" if kind is numbers.Integral else "a number"
        raise ConfigurationError(f"{name}={value!r} must be {what}")


def require_power_of_two(value, name: str) -> int:
    """The exponent j of value = 2^j (to 1e-12 relative); refuse zero,
    negative, NaN, infinite and non-dyadic values."""
    require_number(value, name)
    if not 0.0 < value < math.inf:
        raise ConfigurationError(f"{name}={value} must be a positive finite power of 2")
    j = round(math.log2(value))
    if abs(math.ldexp(value, -j) - 1.0) > 1e-12:
        raise ConfigurationError(f"{name}={value} must be a power of 2")
    return j


@dataclass(frozen=True)
class GridSpec:
    """Anisotropic frequency grid for the periodic box."""

    modes_x: int
    modes_y1: int
    modes_y2: int
    length_x: float
    length_y1: float
    length_y2: float

    def __post_init__(self):
        for n, name in ((self.modes_x, "modes_x"), (self.modes_y1, "modes_y1"),
                        (self.modes_y2, "modes_y2")):
            require_number(n, name, numbers.Integral)
            if n < 8 or n % 2 != 0:
                raise ConfigurationError(f"{name}={n}: mode counts must be even and >= 8")
        lengths = (self.length_x, self.length_y1, self.length_y2)
        for L, name in zip(lengths, ("length_x", "length_y1", "length_y2")):
            require_number(L, name)
            if not (0 < L < np.inf):
                raise ConfigurationError(f"{name}={L}: box lengths must be positive and finite")
        # the scales every mesh, norm and phase is built from: a length at the
        # edge of the doubles can make one of them overflow or underflow to 0
        xi_top = self.modes_x // 2 * self.dxi
        e1, e2 = self.modes_y1 // 2 * self.deta1, self.modes_y2 // 2 * self.deta2
        for what, value in (("mode spacing", self.dxi), ("mode spacing", self.deta1),
                            ("mode spacing", self.deta2),
                            ("cell volume", self.volume / math.prod(self.shape)),
                            ("top symbol term |xi|^3", xi_top * xi_top * xi_top),
                            ("top symbol term |eta|^2/|xi|", (e1 * e1 + e2 * e2) / self.dxi)):
            if not 0.0 < value < math.inf:
                raise ConfigurationError(
                    f"box lengths {lengths} give the {what} {value}, which is not a finite "
                    "nonzero double")
        # sector_key rounds |s| / 2^j exactly only below 2^52; the lowest shell holds its maximum
        index = max(e1, e2) / self.dxi / 2.0 ** int(dyadic_exponent(self.dxi))
        if not index < 2.0 ** 52:
            raise ConfigurationError(f"box lengths {lengths} give the lowest-shell sector "
                                     f"index {index:.6g}, which reaches 2^52")

    @property
    def shape(self):
        return (self.modes_x, self.modes_y1, self.modes_y2)

    @property
    def dxi(self) -> float:
        return 2.0 * np.pi / self.length_x

    @property
    def deta1(self) -> float:
        return 2.0 * np.pi / self.length_y1

    @property
    def deta2(self) -> float:
        return 2.0 * np.pi / self.length_y2

    @property
    def volume(self) -> float:
        return self.length_x * self.length_y1 * self.length_y2

    def mode_numbers(self, axis: int) -> np.ndarray:
        """Integer mode numbers along one axis, FFT order."""
        n = self.shape[axis]
        return np.fft.fftfreq(n, 1.0 / n).astype(np.int64)

    def index(self, kx, k1, k2):
        """(index, inside): the FFT-order array index of mode numbers
        (kx, k1, k2), one array per axis, and where all three are
        representable, |k| < n/2 (never a Nyquist plane).  Only `inside`
        broadcasts, so open-mesh inputs give open-mesh indices."""
        inside = ((np.abs(kx) < self.modes_x // 2) & (np.abs(k1) < self.modes_y1 // 2)
                  & (np.abs(k2) < self.modes_y2 // 2))
        return tuple(k % n for k, n in zip((kx, k1, k2), self.shape)), inside

    def xi_max(self) -> float:
        # Nyquist planes are excluded from use.
        return (self.modes_x // 2 - 1) * self.dxi


def dyadic_exponent(x):
    """Largest integer j with 2**j <= x, elementwise for x > 0; exact at
    powers of two."""
    x = np.asarray(x, dtype=float)
    j = np.floor(np.log2(x)).astype(np.int64)
    j = np.where(np.exp2(j.astype(float)) > x, j - 1, j)
    return np.where(np.exp2((j + 1).astype(float)) <= x, j + 1, j)


def sector_key(xi, s1, s2):
    """Sector (j, m1, m2) of x-frequency xi != 0 and slope (s1, s2), elementwise:
    2^j <= |xi| < 2^(j+1) and s / 2^j - m in [-1/2, 1/2)^2, tested exactly: the
    rounded floor(s / 2^j + 1/2) can be one too high at a lower box edge."""
    j = dyadic_exponent(np.abs(xi))
    t = [s / np.exp2(j.astype(float)) for s in (s1, s2)]   # exact: a power of two
    m = [np.floor(x + 0.5) for x in t]
    return (j, *(np.where(x < k - 0.5, k - 1, k).astype(np.int64) for x, k in zip(t, m)))


def sector_labels(j, m1, m2) -> tuple:
    """(id1, id2, keys) of sector keys given per axis as sector_key gives them on
    an open mesh: point (i, a, b) lies in sector id1[i, a, 0] + id2[i, 0, b], and
    keys(ids) decodes ids.  Ranking the distinct (j, m1) and (j, m2) pairs, id1 =
    rank1 N2 and id2 = rank2 give distinct keys distinct ids below N1 N2."""
    def rank(m):
        lo, span = np.array([[j.min()], [m.min()]]), int(np.ptp(m)) + 1
        pairs, r = np.unique((j - lo[0]) * span + m - lo[1], return_inverse=True)
        return r.reshape(m.shape), np.stack(np.divmod(pairs, span)) + lo
    (r1, pairs1), (r2, pairs2) = rank(m1), rank(m2)
    n2 = pairs2.shape[1]

    def keys(ids):
        return np.stack([*pairs1[:, ids // n2], pairs2[1, ids % n2]])
    return _read_only(r1 * n2), _read_only(r2), keys


def _read_only(a):
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class GridGeometry:
    """Read-only per-grid meshes, masks and sector labels (see grid_geometry).

    xi, eta1, eta2 broadcast as (nx,1,1), (1,n1,1), (1,1,n2); the slopes
    s1 = eta1/xi and s2 = eta2/xi as (nx,n1,1) and (nx,1,n2).  On the
    excluded xi = 0 plane the slopes are 0.  `box`, `active` and `sector`
    are built on first use: only the solver and the sector decomposition
    need them.
    """

    grid: GridSpec
    xi: np.ndarray
    eta1: np.ndarray
    eta2: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    structural: np.ndarray   # modes a field may occupy: xi != 0, no Nyquist planes
    reverse: tuple           # open-mesh index of the mirror mode -k

    def phase(self, t, planes=slice(None), k1=slice(None), k2=slice(None)) -> np.ndarray:
        """exp(i t w) on x-planes `planes` and eta columns k1, k2 (slices, index
        arrays or open meshes like `box`; all by default), leading axes for an
        array t: exp(i t xi^3) exp(-i t eta1 s1) exp(-i t eta2 s2), one exp per
        plane and per (plane, column) line, each exactly odd in k (Hermitian)."""
        i, j, k = np.ix_(*(np.arange(n)[s].ravel() for s, n in zip((planes, k1, k2),
                                                                   self.grid.shape)))
        t = np.asarray(t, dtype=float)[..., None, None, None]
        x = self.xi[i, 0, 0]
        a1 = self.eta1[0, j, 0] * self.s1[i, j, 0]
        a2 = self.eta2[0, 0, k] * self.s2[i, 0, k]
        return np.exp(1j * (t * (x * x * x))) * np.exp(-1j * (t * a1)) * np.exp(-1j * (t * a2))

    @cached_property
    def box(self) -> tuple:
        """Open-mesh index of the solver state: the 2/3-rule modes of the
        eta2 >= 0 half spectrum, |k| < n/3 on each axis with kx != 0 and
        k2 >= 0.  The bound is strict, so two kept modes never sum to an
        alias of a kept mode.  The xi = 0 and Nyquist planes lie outside it."""
        mx, m1, m2 = ((n - 1) // 3 for n in self.grid.shape)
        index, _ = self.grid.index(*np.ix_(np.r_[1:mx + 1, -mx:0], np.r_[0:m1 + 1, -m1:0],
                                           np.arange(m2 + 1)))
        return tuple(map(_read_only, index))

    @cached_property
    def active(self) -> np.ndarray:
        """Modes the solver evolves: the box and its conjugate mirror."""
        active = np.zeros(self.grid.shape, dtype=bool)
        active[self.box] = True
        return _read_only(active | active[self.reverse])

    @cached_property
    def sector(self) -> tuple:
        """sector_labels (id1, id2, keys) of every mode's sector_key; meaningless
        on the xi = 0 plane, which lies in no sector."""
        return sector_labels(*sector_key(np.where(self.xi != 0, self.xi, 1.0), self.s1, self.s2))


@lru_cache(maxsize=8)
def grid_geometry(grid: GridSpec) -> GridGeometry:
    """The geometry of `grid`, cached for the few most recent grids."""
    kx, k1, k2 = np.ix_(*map(grid.mode_numbers, range(3)))
    xi, e1, e2 = kx * grid.dxi, k1 * grid.deta1, k2 * grid.deta2
    with np.errstate(divide="ignore", invalid="ignore"):
        s1 = np.where(xi != 0, e1 / xi, 0.0)
        s2 = np.where(xi != 0, e2 / xi, 0.0)
    reverse, inside = grid.index(-kx, -k1, -k2)
    return GridGeometry(grid, *map(_read_only, (xi, e1, e2, s1, s2, inside & (kx != 0))),
                        tuple(map(_read_only, reverse)))


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients of a field on `grid`.  Treated as immutable."""

    grid: GridSpec
    coeff: np.ndarray
    real_flag: bool = True

    def __post_init__(self):
        if self.coeff.shape != self.grid.shape:
            raise ConfigurationError(
                f"coefficient shape {self.coeff.shape} != grid shape {self.grid.shape}")

    def validate(self) -> None:
        """Check the structural invariants; raises ConfigurationError.

        Only the occupied x-planes are read (NaN counts as occupied): a zero
        plane adds nothing to the scale or to the Nyquist test, and the
        Hermitian defect at -k is -conj of the defect at k, so the occupied
        plane of a mirror pair carries its maximum.  A field occupying half
        its planes or more is read in place, not gathered, so it holds one
        complex temporary, the mirror copy."""
        c = self.coeff
        occupied = np.flatnonzero(np.any(c, axis=(1, 2)))
        if not occupied.size:
            return
        planes = occupied if 2 * occupied.size < len(c) else slice(None)
        p = c[planes]
        scale = float(np.max(np.abs(p)))   # NaN or inf iff some coefficient is
        if not math.isfinite(scale):
            raise ConfigurationError("non-finite coefficient present")
        if occupied[0] == 0:
            raise ConfigurationError("zero-x-mean invariant violated")
        geo = grid_geometry(self.grid)
        if np.any(p[~geo.structural[planes]] != 0):
            raise ConfigurationError("Nyquist-plane content present")
        if self.real_flag:
            rx, r1, r2 = geo.reverse   # p - conj(mirror), in one complex temporary
            defect = c[rx[planes], r1, r2]
            np.subtract(p, np.conjugate(defect, out=defect), out=defect)
            if np.max(np.abs(defect)) > 1e-12 * (scale or 1.0):
                raise ConfigurationError("Hermitian symmetry violated for real field")

    def l2_norm(self) -> float:
        return float(np.sqrt(self.grid.volume * np.sum(np.abs(self.coeff) ** 2)))


def nonzero_modes(grid: GridSpec, coeff: np.ndarray):
    """Mode numbers (kx, k1, k2) and values of the nonzero coefficients."""
    idx = np.nonzero(coeff)
    return (*(grid.mode_numbers(a)[i] for a, i in enumerate(idx)), coeff[idx])


def make_field(grid: GridSpec, coeff: np.ndarray) -> SpectralField:
    """Construct a real field, enforcing the structural invariants.

    The conjugate-mirror average is taken first, which is the standard way
    to realize a real field from a one-sided bump formula.
    """
    geo = grid_geometry(grid)
    c = np.array(coeff, dtype=np.complex128)
    m = c[geo.reverse]   # 0.5 * (c + conj(mirror)), in one mirrored copy
    np.conjugate(m, out=m)
    c += m
    c *= 0.5
    c[~geo.structural] = 0.0
    return SpectralField(grid, c, True)


# ----------------------------------------------------------------------
# Transforms
# ----------------------------------------------------------------------

def inverse_transform(u: SpectralField) -> np.ndarray:
    """Coefficients -> real samples on the space grid (the real part if not marked real)."""
    s = np.fft.ifftn(u.coeff) * u.coeff.size
    if u.real_flag:
        amp = np.max(np.abs(s)) or 1.0
        if np.max(np.abs(s.imag)) > 1e-9 * amp:
            raise ConfigurationError("field marked real has non-real samples")
    return np.ascontiguousarray(s.real)


# ----------------------------------------------------------------------
# Dispersion symbol and the linear group
# ----------------------------------------------------------------------

def dispersion_symbol(xi, eta):
    """w(xi, eta) = xi^3 - |eta|^2 / xi, elementwise on broadcastable xi and
    eta = (eta1, eta2).  Pole at xi = 0 is a domain error."""
    if np.any(xi == 0):
        raise DomainError("dispersion symbol evaluated at xi = 0")
    e1, e2 = eta
    return xi ** 3 - (e1 * e1 + e2 * e2) / xi


def apply_linear_propagator(u: SpectralField, t: float) -> SpectralField:
    """Exact linear flow: multiply each coefficient by exp(i t w(xi, eta))."""
    return SpectralField(u.grid, u.coeff * grid_geometry(u.grid).phase(t), u.real_flag)


# ----------------------------------------------------------------------
# Symmetry transforms
# ----------------------------------------------------------------------

def galilean_lattice(grid: GridSpec):
    """Admissible Galilean slopes are integer multiples of these two values."""
    return (grid.deta1 / grid.dxi, grid.deta2 / grid.dxi)


def _galilean_integers(grid: GridSpec, c) -> tuple[int, int]:
    base = galilean_lattice(grid)
    ms = []
    for ci, bi in zip(c, base):
        m = ci / bi
        mi = int(np.rint(m))
        if abs(m - mi) > 1e-9 * max(1.0, abs(m)):
            u1, u2 = base
            raise PreconditionError(
                "Galilean slope must be grid-aligned: admissible c are integer "
                f"multiples of ({u1:.6g}, {u2:.6g})")
        ms.append(mi)
    return ms[0], ms[1]


def galilean_shift(u: SpectralField, c) -> SpectralField:
    """Relocate coefficients per the Galilean action u-hat(xi, eta + c xi).

    Modes relocated off the representable grid are dropped; when the dropped
    L^2 mass exceeds 1e-10 of the total a warning is issued.
    """
    g = u.grid
    m1, m2 = _galilean_integers(g, c)
    kx, k1, k2 = np.ix_(*map(g.mode_numbers, range(3)))
    source, inside = g.index(kx, k1 + m1 * kx, k2 + m2 * kx)
    out = np.where(inside & grid_geometry(g).structural, u.coeff[source], 0.0)
    total = g.volume * np.sum(np.abs(u.coeff) ** 2)
    kept = g.volume * np.sum(np.abs(out) ** 2)
    dropped = max(0.0, float(total - kept))
    if total > 0 and dropped > _DROPPED_MASS_WARN * total:
        warnings.warn(f"galilean_shift dropped off-grid mass {dropped:.3e} "
                      f"({dropped / total:.3e} of total)", stacklevel=2)
    return SpectralField(g, out, u.real_flag)


def galilean_boost(u: SpectralField, c, t: float) -> SpectralField:
    """Full time-t Galilean symmetry: shift plus the phase exp(it(|c|^2 xi + 2 c.eta)).

    At t = 0 this is galilean_shift.  If w solves the nonlinear equation with
    datum u0 then the boost of w(t) equals the evolution of the shifted datum.
    """
    shifted = galilean_shift(u, c)
    m = grid_geometry(u.grid)
    c1, c2 = c
    phase = np.exp(1j * t * ((c1 * c1 + c2 * c2) * m.xi
                             + 2.0 * (c1 * m.eta1 + c2 * m.eta2)))
    return SpectralField(u.grid, shifted.coeff * phase, u.real_flag)


def scaling_transform(u: SpectralField, lam: float) -> SpectralField:
    """Realize u -> lam^2 u(lam x, lam^2 y, .) exactly: the field on the
    rescaled (nested) grid with box lengths (Lx/lam, Ly/lam^2), an exact
    relabeling for any dyadic lam."""
    require_power_of_two(lam, "lam")
    g = u.grid
    g2 = replace(g, length_x=g.length_x / lam,
                 length_y1=g.length_y1 / lam ** 2,
                 length_y2=g.length_y2 / lam ** 2)
    return SpectralField(g2, lam ** 2 * u.coeff, u.real_flag)


# ----------------------------------------------------------------------
# Pairing
# ----------------------------------------------------------------------

def trilinear_pairing(u: SpectralField, w: SpectralField) -> float:
    """Real pairing integral u * w dx dy for real fields (no conjugation)."""
    if u.grid != w.grid:
        raise ConfigurationError("pairing requires a shared grid")
    val = u.grid.volume * np.sum(u.coeff * w.coeff[grid_geometry(u.grid).reverse])
    return float(np.real(val))


# ----------------------------------------------------------------------
# Snapshot file format
# ----------------------------------------------------------------------
# Header: magic "KP3F", version u32, modes_x/y1/y2 u32, three box lengths as
# IEEE-754 binary64, real_flag u8; then coefficients as interleaved (re, im)
# binary64 pairs, little-endian, k_x-major order.

_HEADER = struct.Struct("<4sIIII dddB")


def write_snapshot(u: SpectralField, path) -> None:
    g = u.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
                              g.modes_x, g.modes_y1, g.modes_y2,
                              g.length_x, g.length_y1, g.length_y2,
                              1 if u.real_flag else 0))
        inter = np.empty(u.coeff.shape + (2,), dtype="<f8")
        inter[..., 0] = u.coeff.real
        inter[..., 1] = u.coeff.imag
        fh.write(inter.tobytes(order="C"))


def read_snapshot(path) -> SpectralField:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ConfigurationError(
                f"snapshot header has {len(header)} bytes, expected {_HEADER.size}")
        magic, version, nx, n1, n2, lx, l1, l2, rflag = _HEADER.unpack(header)
        if magic != SNAPSHOT_MAGIC:
            raise ConfigurationError(f"bad snapshot magic {magic!r}")
        if version != SNAPSHOT_VERSION:
            raise ConfigurationError(f"unsupported snapshot version {version}")
        grid = GridSpec(nx, n1, n2, lx, l1, l2)
        payload = fh.read()
    expect = 16 * nx * n1 * n2
    if len(payload) != expect:
        raise ConfigurationError(f"snapshot payload has {len(payload)} bytes, expected {expect}")
    inter = np.frombuffer(payload, dtype="<f8").reshape(nx, n1, n2, 2)
    field = SpectralField(grid, inter[..., 0] + 1j * inter[..., 1], bool(rflag))
    field.validate()
    return field
