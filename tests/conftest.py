import time

import pytest

from jetmap import duffing as duf
from jetmap import jetode as ode

# the published expansion point: an unstable fixed point of the exact
# stroboscopic map at beta=.1, eps=25, omega=1.285, given in the (q, p) frame
FP_Q, FP_P, FP_OMEGA = 1.26082, 2.05452, 1.285


@pytest.fixture(scope="session")
def m8_map():
    """Order-8 Duffing map about the unstable fixed point (built once).

    The per-step tolerance is the maps' default 1e-9.  The degree-8
    coefficients reach ~5e11; step control weighs each coefficient's error by
    ``1 + |c|``, so this is 1e-9 relative on the large coefficients.
    """
    z1, z2 = duf.to_scaled(FP_Q, FP_P, FP_OMEGA)
    t0 = time.time()
    tmap = duf.stroboscopic_taylor_map(
        0.1, 25.0, (z1, z2, 1.0 / FP_OMEGA), p=8, cfg=ode.adaptive(1e-9)
    )
    return tmap, time.time() - t0
