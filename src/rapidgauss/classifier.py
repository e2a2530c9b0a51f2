"""Classify which kinds of dynamics a set of generators drives.

Every 2x2 block of a generator matrix decomposes exactly over the orthogonal
basis {1, omega, X, Z}.  Eleven dynamics types are distinguished: the
symmetric part of A gives unitary effects (single/multi-mode rotations and
squeezings), the antisymmetric part non-unitary ones
(amplification/relaxation and the multi-mode counter effects), b drives
displacement, and C injects thermal, squeezed, or multi-mode noise.

The availability table records at which series orders a bombardment can
produce each type: unitary A effects at even orders only (at order zero only
through the free Hamiltonian), non-unitary A effects at odd orders,
displacement everywhere, and noise at every order past zero.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .interpolation import Generators

# basis[k] is the k-th 2x2 basis matrix; every entry is 0 or +-1
_BASIS = np.array(
    [
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.0, 1.0], [-1.0, 0.0]],
        [[0.0, 1.0], [1.0, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ]
)

DYNAMICS_TYPES = (
    "single_mode_rotation",
    "single_mode_squeezing",
    "displacement",
    "single_mode_squeezed_noise",
    "amplification_relaxation",
    "thermal_noise",
    "multi_mode_rotation",
    "multi_mode_squeezing",
    "multi_mode_counter_rotation",
    "multi_mode_noise",
    "multi_mode_counter_squeezing",
)

# a block coefficient counts when it exceeds this fraction of the largest
# generator entry, so exact structural zeros never raise a flag
CLASSIFY_EPS = 1e-10

# availability per type: (0th via free Hamiltonian, 0th induced, odd >= 1, even >= 2)
TABLE_AVAILABILITY = {
    "single_mode_rotation": (True, False, False, True),
    "single_mode_squeezing": (True, False, False, True),
    "displacement": (True, True, True, True),
    "single_mode_squeezed_noise": (False, False, True, True),
    "amplification_relaxation": (False, False, True, False),
    "thermal_noise": (False, False, True, True),
    "multi_mode_rotation": (True, False, False, True),
    "multi_mode_squeezing": (True, False, False, True),
    "multi_mode_counter_rotation": (False, False, True, False),
    "multi_mode_noise": (False, False, True, True),
    "multi_mode_counter_squeezing": (False, False, True, False),
}


def allowed_types(order):
    """Types a bombardment may produce at a series order (0th: free or induced)."""
    out = set()
    for name, (free0, induced0, odd, even) in TABLE_AVAILABILITY.items():
        if order == 0:
            if free0 or induced0:
                out.add(name)
        elif order % 2 == 1:
            if odd:
                out.add(name)
        elif even:
            out.add(name)
    return out


def block_decompose(m):
    """Exact expansion of each 2x2 block over the orthogonal basis: an array
    (N, N, 4) whose entry [i, j] holds the coefficients of block (i, j) over
    {1, omega, X, Z}, in that order.

    The basis is orthogonal under (1/2) Tr(P^T Q), so coefficients are plain
    trace projections and the blocks are their exact sums.  All blocks are
    projected by one einsum over m viewed as (block row, row, block column,
    column); the basis entries are 0 and +-1, so each coefficient is exactly
    (1/2)(m_ab +- m_cd).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 != 0:
        raise DimensionMismatchError("expected a square matrix of even dimension")
    nb = m.shape[0] // 2
    return 0.5 * np.einsum("iajb,kab->ijk", m.reshape(nb, 2, nb, 2), _BASIS)


@dataclass(frozen=True)
class DynamicsReport:
    """Presence flags for the eleven dynamics types."""

    flags: dict

    def __post_init__(self):
        missing = set(DYNAMICS_TYPES) - set(self.flags)
        if missing:
            raise ValueError(f"missing dynamics types: {sorted(missing)}")
        object.__setattr__(self, "flags", dict(self.flags))

    def __getitem__(self, name):
        return self.flags[name]

    @property
    def present(self):
        return {name for name in DYNAMICS_TYPES if self.flags[name]}

    def to_dict(self):
        return {name: bool(self.flags[name]) for name in DYNAMICS_TYPES}


def classify(gen):
    """Flag the dynamics types a set of generators drives.

    Coefficients are compared against CLASSIFY_EPS times the overall
    generator scale, so exact structural zeros (for example the symmetric
    part of an odd-order coefficient) never raise a flag.
    """
    a, b, c = np.asarray(gen.A), np.asarray(gen.b), np.asarray(gen.C)
    scale = max(np.abs(a).max(), np.abs(b).max(), np.abs(c).max(), 0.0)
    if scale == 0.0:
        return DynamicsReport(flags=dict.fromkeys(DYNAMICS_TYPES, False))
    thr = CLASSIFY_EPS * scale

    # per block and basis element: is the coefficient above the threshold?
    sym = np.abs(block_decompose((a + a.T) / 2)) > thr
    anti = np.abs(block_decompose((a - a.T) / 2)) > thr
    noise = np.abs(block_decompose((c + c.T) / 2)) > thr
    eye = np.eye(sym.shape[0], dtype=bool)
    # basis order: id, omega, x, z; diagonal blocks act on one mode, the
    # off-diagonal ones couple two
    sym_d, anti_d, noise_d = sym[eye], anti[eye], noise[eye]
    sym_o, anti_o, noise_o = sym[~eye], anti[~eye], noise[~eye]
    flags = dict(
        single_mode_rotation=sym_d[:, 0].any(),
        single_mode_squeezing=sym_d[:, 2:].any(),
        amplification_relaxation=anti_d[:, 1].any(),
        thermal_noise=noise_d[:, 0].any(),
        single_mode_squeezed_noise=noise_d[:, 2:].any(),
        multi_mode_rotation=sym_o[:, :2].any(),
        multi_mode_squeezing=sym_o[:, 2:].any(),
        multi_mode_counter_rotation=anti_o[:, :2].any(),
        multi_mode_counter_squeezing=anti_o[:, 2:].any(),
        multi_mode_noise=noise_o.any(),
        displacement=np.abs(b).max() > thr,
    )
    return DynamicsReport(flags={name: bool(flag) for name, flag in flags.items()})


def table_availability(series, order):
    """Classify the order-k coefficients of a generator series.

    For a bombardment-derived series the flags land inside
    :func:`allowed_types` for that order.
    """
    if order > series.order:
        raise ValueError(f"series only carries orders up to {series.order}")
    c = series.C[order]
    gen = Generators(A=series.A[order], b=series.b[order], C=(c + c.T) / 2)
    return classify(gen)
