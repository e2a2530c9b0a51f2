"""Seeded random inputs for sweeps and property tests.

All draws go through a caller-supplied numpy Generator so that a fixed seed
reproduces a run bit for bit.
"""

import numpy as np

from .channels import JointSetup
from .linalg import mat_exp
from .phasespace import symplectic_form


def random_symmetric(rng, dim, scale=1.0):
    m = rng.uniform(-scale, scale, (dim, dim))
    return (m + m.T) / 2


def random_symplectic(rng, n_modes, strength=0.5):
    """Symplectic matrix exp(Omega F) for a random symmetric F."""
    omega = symplectic_form(n_modes)
    return mat_exp(omega @ random_symmetric(rng, 2 * n_modes, strength))


# range of the thermal parameter nu drawn for each mode of a random state
NU_RANGE = (1.0, 2.5)


def random_state_cov(rng, n_modes, squeeze=0.5):
    """Valid covariance: thermal scales per mode (nu in NU_RANGE), conjugated
    symplectically."""
    nus = rng.uniform(NU_RANGE[0], NU_RANGE[1], n_modes)
    diag = np.diag(np.repeat(nus, 2))
    s = random_symplectic(rng, n_modes, squeeze)
    cov = s @ diag @ s.T
    return (cov + cov.T) / 2


def random_joint_setup(rng, n_sys=None, n_anc=None, scale=0.5, squeeze=0.5, dt=0.05):
    """Random valid bombardment setup with moderate couplings and linear
    parts."""
    if n_sys is None:
        n_sys = int(rng.integers(1, 3))
    if n_anc is None:
        n_anc = int(rng.integers(1, 3))
    ds, da = 2 * n_sys, 2 * n_anc
    lin = lambda n: rng.uniform(-scale, scale, n)
    return JointSetup(
        F_S=random_symmetric(rng, ds, scale),
        F_A=random_symmetric(rng, da, scale),
        G=rng.uniform(-scale, scale, (ds, da)),
        alpha_S=lin(ds),
        alpha_A=lin(da),
        X_A0=lin(da),
        sigma_A0=random_state_cov(rng, n_anc, squeeze),
        dt=dt,
    )

