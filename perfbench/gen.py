"""Seeded input generator shared by every workload.

Everything the program under test receives is made here from a
``numpy.random.Generator``: partitions, signals and the files a CLI job reads.
The same seed gives the same inputs. Nothing in this module imports cews.
"""

import math

import numpy as np

# smallest distance between two finite boundaries, and between a boundary and
# 0 or +-pi; at the smallest grid used (256 bins, spacing 0.0245 rad) every
# support still holds at least two bins, so no filter is empty on the grid
MIN_GAP = 0.05


def _spread(rng, lo, hi, count):
    """``count`` sorted points in (lo, hi), at least MIN_GAP apart and from
    both ends: fixed gaps plus a uniformly random split of the slack."""
    slack = (hi - lo) - (count + 1) * MIN_GAP
    if slack <= 0.0:
        raise ValueError(f"{count} boundaries do not fit in ({lo}, {hi})")
    gaps = MIN_GAP + slack * rng.dirichlet(np.ones(count + 1))
    return (lo + np.cumsum(gaps)[:-1]).tolist()


def boundaries(rng, mode, n_supports):
    """Boundaries of a random valid partition with ``n_supports`` supports.

    Both ends are rays, so the filters cover the whole line (Meyer needs
    them, and every other family then has a positive lower frame bound
    except Gabor with local rays). Finite boundaries lie in (-pi, pi); V mode
    holds the zero boundary, Vstar mode keeps them MIN_GAP away from 0 with at
    least one on each side.
    """
    finite = n_supports - 1
    inner = finite - 1 if mode == "V" else finite
    if inner < 2:
        raise ValueError(f"{mode} needs more than {n_supports} supports")
    n_neg = int(rng.integers(1, inner))
    neg = _spread(rng, -math.pi, 0.0, n_neg)
    pos = _spread(rng, 0.0, math.pi, inner - n_neg)
    zero = [0.0] if mode == "V" else []
    return [-math.inf] + neg + zero + pos + [math.inf]


def signal(rng, n_samples):
    """Complex white Gaussian signal."""
    return rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples)


def real_signal(rng, n_samples):
    return rng.standard_normal(n_samples)


def config_json(mode, bounds, n_samples, gamma):
    """A Littlewood-Paley CLI job config; rays use the '-inf'/'+inf' strings."""
    import json  # only cli inputs need it; set-up of the others does not pay for it

    encoded = [
        ("-inf" if v < 0 else "+inf") if math.isinf(v) else v for v in bounds
    ]
    return json.dumps(
        {
            "mode": mode,
            "boundaries": encoded,
            "family": "littlewood-paley",
            "gamma": gamma,
            "n_samples": n_samples,
        }
    )


def signal_csv(x):
    """Real signal as the CLI's one-column CSV; repr round-trips exactly."""
    return "re\n" + "\n".join(map(repr, x.tolist())) + "\n"


def signal_raw(x):
    """Real signal as raw little-endian float64."""
    return np.asarray(x, dtype="<f8").tobytes()
