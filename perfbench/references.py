"""Reference values computed with mpmath, independently of ``feynperiods``.

Single zetas and closed forms are cheap and computed at set-up.  Multiple
zeta values need a convergence-accelerated sum (0.3 to 0.8 s each), so the
finite catalogue the workload draws from is frozen in ``mzv_refs.json``;
regenerate it with ``python3 perfbench/references.py``.

In this package's index order zeta(n_1, ..., n_r) sums over
k_1 < ... < k_r, so with H_a(m) = sum_{k <= m} k^-a and the Hurwitz zeta
zeta(c, k + 1) = sum_{j > k} j^-c:

    zeta(a, c)    = sum_{k >= 1} k^-a zeta(c, k + 1)
    zeta(a, b, c) = sum_{k >= 2} H_a(k - 1) k^-b zeta(c, k + 1)

Both terms are smooth in k, which is what ``mpmath.nsum`` extrapolates.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath

TABLE = Path(__file__).with_name("mzv_refs.json")
ZETA35_FROZEN = "0.03770767298484754401"  # brute-force double sum, as frozen in the tests
ZETA35_FROZEN_ERROR = 5e-21  # half a unit in its last digit
DIGITS = 30
TABLE_ERROR = 1e-24  # 25 significant digits of values below 2


def _harmonic(a, m):
    return mpmath.harmonic(m) if a == 1 else mpmath.zeta(a) - mpmath.zeta(a, m + 1)


def mzv_mpmath(indices):
    """zeta(indices) for depth 1 to 3, to about ``DIGITS`` digits."""
    with mpmath.workdps(DIGITS):
        if len(indices) == 1:
            return mpmath.zeta(indices[0])
        if len(indices) == 2:
            a, c = indices
            return mpmath.nsum(lambda k: k**-a * mpmath.zeta(c, k + 1), [1, mpmath.inf])
        a, b, c = indices
        return mpmath.nsum(
            lambda k: _harmonic(a, k - 1) * k**-b * mpmath.zeta(c, k + 1), [2, mpmath.inf]
        )


def load_table():
    """Frozen multiple zeta values by index tuple, as mpmath numbers."""
    with open(TABLE) as fh:
        raw = json.load(fh)
    with mpmath.workdps(DIGITS):
        return {tuple(int(n) for n in key.split(",")): mpmath.mpf(v) for key, v in raw.items()}


def closed_forms():
    """Values the workload checks by identity rather than by table."""
    with mpmath.workdps(DIGITS):
        z = mpmath.zeta
        return {
            "zeta_nn": {n: (z(n) ** 2 - z(2 * n)) / 2 for n in range(2, 7)},
            "zeta_1_2": z(3),
            "zeta35": mpmath.mpf(ZETA35_FROZEN),
            "p35": -mpmath.mpf(216) / 5 * mpmath.mpf(ZETA35_FROZEN)
            - 81 * z(5) * z(3)
            + mpmath.mpf(522) / 5 * z(8),
            "g_minus_2": mpmath.mpf(197) / 144 + z(2) / 2 - 3 * z(2) * mpmath.log(2)
            + mpmath.mpf(3) / 4 * z(3),
        }


def period_references():
    """Reference periods of the mc_periods jobs (wheel W_n = C(2n-2, n-1) zeta(2n-3))."""
    with mpmath.workdps(DIGITS):
        return {
            "k4": float(math.comb(4, 2) * mpmath.zeta(3)),
            "wheel4": float(math.comb(6, 3) * mpmath.zeta(5)),
            "wheel5": float(math.comb(8, 4) * mpmath.zeta(7)),
            "banana_xi_simplex": float(4 * mpmath.asinh(0.5) / mpmath.sqrt(5)),
            "banana_xi_affine": float(4 * mpmath.asinh(0.5) / mpmath.sqrt(5)),
        }


def _write_table():
    import inputs  # noqa: PLC0415 - the catalogue lives next to this file

    indices = sorted(
        set(inputs.depth2_indices())
        | set(inputs.depth3_indices())
        | {idx for idx, _ in inputs.WITH_ONE_REQUESTS}
    )
    table = {",".join(map(str, idx)): mpmath.nstr(mzv_mpmath(idx), 25) for idx in indices}
    with open(TABLE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    _write_table()
