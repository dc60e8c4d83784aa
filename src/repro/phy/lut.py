"""Lookup tables for the 802.11 BER curves and their inverses.

The closed-form BER expressions in :mod:`repro.phy.ber` feed the single
hottest function chain in the whole simulator: every decodable frame at
every receiver evaluates ``effective_snr_db`` (56 subcarriers -> mean
BER -> inverse) at least once, and every MPDU in an A-MPDU evaluates a
coded-BER point on top of that.

So the curves are sampled ahead of time, per modulation, and shipped as
data: ``ber_tables.npz`` beside this module, written by
:func:`compute_tables` (``python -m repro.phy.lut`` regenerates it; that
needs scipy, a run does not).  A run only loads the file, so the bytes
every ESNR and delivery draw sees are the file's, whichever scipy is
installed.  Per modulation it holds:

* a dense SNR-dB grid (``SNR_GRID_MIN_DB`` .. ``SNR_GRID_MAX_DB`` in
  ``SNR_GRID_STEP_DB`` steps) carrying the *linear* uncoded BER.  The
  per-sample values are floored at :data:`SAMPLE_BER_FLOOR` (far below
  the inversion floor) so that underflowed subcarriers contribute
  nothing measurable to a mean — exactly like the closed form, where
  the :data:`~repro.phy.ber.BER_FLOOR` clip is applied to the *mean*,
  not per subcarrier.
* a dense log10(BER) grid carrying the *exact* closed-form inverse
  (``snr_for_ber_*``) in dB, including its clipping semantics.

Both grids are *uniform*, so a lookup never needs ``np.interp``'s
per-element binary search: the bucket index is one multiply away
(``pos = (x - grid_min) * inv_step``), and the interpolation is a
gather (``table.take(idx)``) plus one fused multiply-add against a
precomputed slope table.  The scalar entry points and the batched
``(n_links, n_subcarriers)`` entry points in :mod:`repro.phy.per`
share this exact formulation — same subtraction, same truncation, same
``lo + slope[i] * frac`` — so a batched lookup is bit-identical to the
scalar lookup it replaces, which is what lets the batched medium path
be held to the scalar path as an exact in-tree oracle.

The linear-BER interpolation error is quadratic in the grid step and
maximal where the curve is steepest (near the BER floor,
|d ln BER / d dB| ~ 7); at the 0.05 dB step that bounds the
effective-SNR error near 2e-3 dB, more than an order of magnitude
inside the 0.05 dB equivalence bound enforced by
``tests/test_perf_equivalence.py`` (see ``docs/performance.md`` for
the full error analysis).  The small tables (~2.4k entries per
modulation) stay cache-hot.

A note on ``log10``: numpy's vectorized ``np.log10`` and libm's
``math.log10`` can disagree in the last ulp.  Every log taken on a
value that a batched kernel may also compute goes through ``np.log10``
(scalar numpy calls produce the same bits as the vectorized call), so
scalar and batched inversions agree exactly.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict

import numpy as np

from repro.phy.ber import (
    BER_BY_MODULATION,
    BER_CEILING,
    BER_FLOOR,
    SNR_FOR_BER_BY_MODULATION,
    linear_to_db,
)

#: Forward-table SNR grid (dB).  Inputs outside the grid clamp to the
#: endpoints, which is exact: below the grid every curve has reached its
#: zero-SNR plateau, above it every curve has underflowed past the
#: sample floor.
SNR_GRID_MIN_DB = -60.0
SNR_GRID_MAX_DB = 60.0
SNR_GRID_STEP_DB = 0.05

#: Per-sample floor of the forward tables.  Deliberately far below the
#: inversion floor (1e-15): a clipped subcarrier adds at most 1e-40 to
#: a 56-sample mean, which is invisible next to the floor itself.
SAMPLE_BER_FLOOR = 1e-40

#: Inverse-table grid in log10(BER), inversion floor .. log10(ceiling).
LOG_BER_FLOOR = math.log10(BER_FLOOR)
LOG_BER_CEILING = math.log10(BER_CEILING)
LOG_BER_STEP = 0.001

_SNR_GRID_DB = np.arange(
    SNR_GRID_MIN_DB, SNR_GRID_MAX_DB + SNR_GRID_STEP_DB / 2, SNR_GRID_STEP_DB
)
_INV_SNR_STEP = 1.0 / SNR_GRID_STEP_DB
_N_SNR = len(_SNR_GRID_DB)

_LOG_BER_GRID = np.arange(
    LOG_BER_FLOOR, LOG_BER_CEILING + LOG_BER_STEP / 2, LOG_BER_STEP
)
_INV_LOG_BER_STEP = 1.0 / LOG_BER_STEP
_N_LOG_BER = len(_LOG_BER_GRID)

#: The committed tables (``python -m repro.phy.lut`` rewrites them).
TABLES_PATH = Path(__file__).with_name("ber_tables.npz")

#: Stored beside the tables; a file written for other grids is refused.
_GRID_HEADER = np.array([
    SNR_GRID_MIN_DB, SNR_GRID_MAX_DB, SNR_GRID_STEP_DB, SAMPLE_BER_FLOOR,
    LOG_BER_FLOOR, LOG_BER_CEILING, LOG_BER_STEP,
])


def compute_tables() -> Dict[str, np.ndarray]:
    """Sample every closed-form curve on the two grids: the arrays
    ``ber_tables.npz`` holds (``<modulation>_ber``, after the
    :data:`SAMPLE_BER_FLOOR` clamp, and ``<modulation>_inv_snr_db``),
    the grid header, and ``written_with``: the numpy and scipy versions
    and numpy's SIMD loop for ``power`` / ``log10``, whose last bit
    differs between loops (the erfc tail amplifies it).  Needs scipy;
    the simulator only loads the file.  A dev tool: ``python -m
    repro.phy.lut`` writes ``ber_tables.npz`` with it, and
    ``tests/test_phy_tables.py::test_the_file_is_what_compute_tables_writes``
    holds the committed file to it."""
    import scipy

    try:
        from numpy.lib.introspect import opt_func_info

        loops = opt_func_info("^(power|log10)$", "^d")
    except ImportError:  # numpy < 2.0 cannot say which loop runs
        loops = {}
    written_with = [f"numpy {np.__version__}", f"scipy {scipy.__version__}"] + [
        f"{name} {loops[name][sig]['current']}" for name in sorted(loops) for sig in loops[name]
    ]
    tables = {"grid": _GRID_HEADER, "written_with": np.array(written_with)}
    snr_linear = np.power(10.0, _SNR_GRID_DB / 10.0)
    for modulation, forward in BER_BY_MODULATION.items():
        with np.errstate(under="ignore"):
            ber = np.asarray(forward(snr_linear), dtype=float)
        tables[f"{modulation}_ber"] = np.maximum(ber, SAMPLE_BER_FLOOR)
        inverse = SNR_FOR_BER_BY_MODULATION[modulation]
        with np.errstate(under="ignore", divide="ignore"):
            snr_for = inverse(np.power(10.0, _LOG_BER_GRID))
        tables[f"{modulation}_inv_snr_db"] = np.asarray(linear_to_db(snr_for), dtype=float)
    return tables


def _refuse(why: str) -> ValueError:
    return ValueError(f"{TABLES_PATH.name}: {why}; regenerate it with `python -m repro.phy.lut`")


class ModulationLut:
    """Forward (SNR dB -> BER) and inverse (mean BER -> SNR dB) tables
    for one modulation, loaded from the committed file."""

    __slots__ = (
        "modulation",
        "ber",
        "ber_slope",
        "inv_snr_db",
        "inv_slope",
        "max_ber",
    )

    def __init__(self, modulation: str):
        self.modulation = modulation
        with np.load(TABLES_PATH, allow_pickle=False) as tables:
            if not np.array_equal(tables["grid"], _GRID_HEADER):
                raise _refuse("its grid header is not SNR_GRID_* / SAMPLE_BER_FLOOR / LOG_BER_*")
            ber = tables[f"{modulation}_ber"]
            inv_snr_db = tables[f"{modulation}_inv_snr_db"]
        if ber.shape != (_N_SNR,) or inv_snr_db.shape != (_N_LOG_BER,):
            raise _refuse(f"the {modulation} tables are not {_N_SNR} / {_N_LOG_BER} long")
        # NB: tables stay writeable — numpy's C fast paths copy
        # read-only buffers on every call, which would cost more than
        # the interpolation itself.  Treat them as frozen.
        self.ber = np.require(ber, np.float64, ("C", "W"))
        self.inv_snr_db = np.require(inv_snr_db, np.float64, ("C", "W"))
        # The batched gather relies on the top two forward entries being
        # equal (both at the sample floor): a clipped above-grid lookup
        # lands on the last bucket with frac == 1 and a zero slope, so
        # it returns the final entry exactly without a masking pass.
        if not self.ber[-2] == self.ber[-1] == SAMPLE_BER_FLOOR:
            raise _refuse(f"the top two {modulation} entries are not at the sample floor")
        #: Per-bucket slopes, precomputed so a lookup is a gather plus
        #: one multiply-add.  ``slope[i] == table[i+1] - table[i]``
        #: bitwise — the same subtraction the runtime lerp used to do.
        self.ber_slope = self.ber[1:] - self.ber[:-1]
        #: The curve's zero-SNR plateau — the largest mean BER any input
        #: can produce; inversion clamps here, mirroring the closed form
        #: (whose input can never exceed it either).
        self.max_ber = float(self.ber[0])
        self.inv_slope = self.inv_snr_db[1:] - self.inv_snr_db[:-1]

    # ------------------------------------------------------------------
    # forward: SNR -> BER
    # ------------------------------------------------------------------

    def ber_of_db_scalar(self, snr_db: float) -> float:
        """Uncoded BER at one SNR point (dB) — uniform-grid fast path.

        Branch-for-branch the scalar twin of :meth:`ber_of_db_batch`:
        same ``pos`` arithmetic, same truncation, same
        ``lo + slope[i] * frac`` multiply-add, so the two agree bitwise.
        """
        pos = (snr_db - SNR_GRID_MIN_DB) * _INV_SNR_STEP
        if pos <= 0.0:
            return self.max_ber  # == float(self.ber[0])
        if pos >= _N_SNR - 1:
            return float(self.ber[-1])  # == SAMPLE_BER_FLOOR
        if pos != pos:  # NaN input propagates (int(nan) would raise)
            return math.nan
        i = int(pos)
        frac = pos - i
        return float(self.ber[i] + self.ber_slope[i] * frac)

    def ber_of_db_batch(self, snr_db: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`ber_of_db_scalar` over any array shape.

        Bit-identical, element for element, to the scalar lookup —
        including the endpoint clamps and NaN propagation.  (The top
        clamp needs no masking pass: the final two table entries are
        equal by construction, so the frac=1 lerp a clipped above-grid
        input produces *is* the final entry; see ``__init__``.)
        """
        snr_db = np.asarray(snr_db, dtype=float)
        pos = (snr_db - SNR_GRID_MIN_DB) * _INV_SNR_STEP
        np.maximum(pos, 0.0, out=pos)  # NaN passes through both clamps
        np.minimum(pos, _N_SNR - 1.0, out=pos)
        with np.errstate(invalid="ignore"):
            idx = pos.astype(np.int64)  # NaN -> INT64_MIN, clamped next
        np.minimum(idx, _N_SNR - 2, out=idx)
        np.maximum(idx, 0, out=idx)
        frac = pos - idx
        out = self.ber.take(idx)
        out += self.ber_slope.take(idx) * frac
        return out

    # ------------------------------------------------------------------
    # inverse: mean BER -> effective SNR
    # ------------------------------------------------------------------

    def snr_db_for_ber(self, ber: float) -> float:
        """Effective SNR (dB) whose flat-channel BER equals ``ber``.

        Matches the clipping closed form: the input is clamped into
        [:data:`~repro.phy.ber.BER_FLOOR`, curve maximum] before the
        table lookup.  The log goes through ``np.log10`` so the result
        is bit-identical to :meth:`snr_db_for_ber_batch` (libm's
        ``math.log10`` can differ in the last ulp).
        """
        if ber != ber:  # NaN in, NaN out
            return math.nan
        if ber <= BER_FLOOR:
            pos = 0.0
        else:
            if ber > self.max_ber:
                ber = self.max_ber
            pos = (float(np.log10(ber)) - LOG_BER_FLOOR) * _INV_LOG_BER_STEP
        if pos <= 0.0:
            return float(self.inv_snr_db[0])
        if pos >= _N_LOG_BER - 1:
            return float(self.inv_snr_db[-1])
        i = int(pos)
        frac = pos - i
        return float(self.inv_snr_db[i] + self.inv_slope[i] * frac)

    def snr_db_for_ber_batch(self, ber: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`snr_db_for_ber` over any array shape —
        bit-identical element for element (clamps, floor, NaN).

        The input clamp into [floor, curve max] pins ``pos`` inside
        ``[0, N-1)`` for every non-NaN input (the curve maximum sits
        strictly below the grid ceiling), so no position clamp is
        needed; the index clamps exist only to absorb the garbage an
        NaN cast produces (its ``frac`` stays NaN and propagates).
        """
        ber = np.asarray(ber, dtype=float)
        with np.errstate(invalid="ignore"):
            clipped = np.maximum(ber, BER_FLOOR)
            np.minimum(clipped, self.max_ber, out=clipped)
            log_ber = np.log10(clipped, out=clipped)
            pos = np.subtract(log_ber, LOG_BER_FLOOR, out=log_ber)
            np.multiply(pos, _INV_LOG_BER_STEP, out=pos)
            idx = pos.astype(np.int64)
        np.minimum(idx, _N_LOG_BER - 2, out=idx)
        np.maximum(idx, 0, out=idx)
        frac = pos - idx
        out = self.inv_snr_db.take(idx)
        out += self.inv_slope.take(idx) * frac
        return out


_LUTS: Dict[str, ModulationLut] = {}


def lut_for(modulation: str) -> ModulationLut:
    """The (lazily built, process-wide) table pair for ``modulation``."""
    lut = _LUTS.get(modulation)
    if lut is None:
        lut = ModulationLut(modulation)
        _LUTS[modulation] = lut
    return lut


# ----------------------------------------------------------------------
# drop-in fast paths used by repro.phy.esnr / repro.phy.per
# ----------------------------------------------------------------------

def ber_at_snr_db_lut(modulation: str, snr_db: float) -> float:
    """Uncoded BER at a single (scalar) SNR point in dB."""
    return lut_for(modulation).ber_of_db_scalar(snr_db)


if __name__ == "__main__":
    np.savez(TABLES_PATH, **compute_tables())
    print(f"wrote {TABLES_PATH}")
