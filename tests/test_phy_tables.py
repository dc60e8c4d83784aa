"""The PHY tables ship as data (``src/repro/phy/ber_tables.npz``).

Every ESNR and delivery draw reads them, so their bytes are the run's
bytes.  These tests hold the committed file to:

* a sha256 pin of every array (the bytes the closed forms gave before
  the file existed);
* what :func:`repro.phy.lut.compute_tables` writes today: bit for bit
  when numpy, scipy and numpy's SIMD loops match the file's
  ``written_with``, within a relative 1e-12 otherwise;
* the grids of :mod:`repro.phy.lut`: a file written for other grids, or
  with a short array, is refused with the regenerate command;
* the point of the file: a run never imports scipy.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.phy import lut
from repro.phy.ber import BER_BY_MODULATION

MODULATIONS = sorted(BER_BY_MODULATION)

#: sha256 of each committed array's bytes.
PINNED = {
    "bpsk_ber": "d2345c69457b6240ac52a5d598115f789a23601566538d43b44797b4b9a6c8cd",
    "bpsk_inv_snr_db": "a78e514b28f4fa5fa42bf17560abc77778dfe6592f9f355374f8eb298ee04214",
    "qpsk_ber": "3680841eb06702833bf7bf6cee15eaa1dc7f97c52149ccce0d00218357631acd",
    "qpsk_inv_snr_db": "b5e725475b8b3f86be802524db0949eeca8dc771b8b89642095c7c635d3d36c7",
    "16qam_ber": "6c509e2e4ed8125f920fe8f3fac3e7a177cc457788fc5558af6377aaa52b1405",
    "16qam_inv_snr_db": "bd16097cd21cb6190254745541377d773b7c5d3d75b6d232b7f626d970d045f4",
    "64qam_ber": "2456892d3f91aa04a287ffd7261adc1d61ca0a4f2849b19dbfc1918c2cdab3ac",
    "64qam_inv_snr_db": "c7b57150e4167a6736793debeeb4d0e5f188fdcc8c5e1e1bc71eb530e82bc2dc",
}


def committed() -> dict:
    with np.load(lut.TABLES_PATH, allow_pickle=False) as tables:
        return {name: tables[name] for name in tables.files}


def test_every_table_is_pinned():
    tables = committed()
    stored = sorted(name for name in tables if name.endswith(("_ber", "_inv_snr_db")))
    assert stored == sorted(PINNED)
    for name, digest in PINNED.items():
        assert tables[name].dtype == np.float64, name
        assert hashlib.sha256(tables[name].tobytes()).hexdigest() == digest, name


@pytest.mark.parametrize("modulation", MODULATIONS)
def test_loaded_tables_are_writeable_c_contiguous_float64(modulation):
    table = lut.ModulationLut(modulation)
    for array in (table.ber, table.inv_snr_db, table.ber_slope, table.inv_slope):
        assert array.dtype == np.float64
        assert array.flags.c_contiguous and array.flags.writeable
    assert hashlib.sha256(table.ber.tobytes()).hexdigest() == PINNED[f"{modulation}_ber"]


def test_the_file_is_what_compute_tables_writes():
    pytest.importorskip("scipy")
    tables, fresh = committed(), lut.compute_tables()
    assert sorted(tables) == sorted(fresh)
    assert tables["grid"].tobytes() == fresh["grid"].tobytes()
    same_libraries = list(tables["written_with"]) == list(fresh["written_with"])
    for name in PINNED:
        if same_libraries:
            assert tables[name].tobytes() == fresh[name].tobytes(), name
        else:
            # Another numpy SIMD loop moves np.power's last bit, and the
            # erfc tail amplifies it by ~x^2: up to 244 ULP (4e-14
            # relative) with AVX-512 disabled on one x86 box.
            np.testing.assert_allclose(
                tables[name], fresh[name], rtol=1e-12, atol=1e-12, err_msg=name
            )


def _rewritten(tmp_path: Path, monkeypatch, **changes) -> None:
    tables = committed()
    tables.update(changes)
    path = tmp_path / "ber_tables.npz"
    np.savez(path, **tables)
    monkeypatch.setattr(lut, "TABLES_PATH", path)


def test_a_file_for_other_grids_is_refused(tmp_path, monkeypatch):
    grid = committed()["grid"].copy()
    grid[2] = 0.1  # SNR_GRID_STEP_DB
    _rewritten(tmp_path, monkeypatch, grid=grid)
    with pytest.raises(ValueError, match="grid header.*python -m repro.phy.lut"):
        lut.ModulationLut("64qam")


def test_a_truncated_table_is_refused(tmp_path, monkeypatch):
    _rewritten(tmp_path, monkeypatch, qpsk_inv_snr_db=committed()["qpsk_inv_snr_db"][:-1])
    lut.ModulationLut("64qam")  # the other modulations still load
    with pytest.raises(ValueError, match="qpsk tables.*python -m repro.phy.lut"):
        lut.ModulationLut("qpsk")


def test_a_run_never_imports_scipy():
    script = (
        "import sys\n"
        "import repro.cli, repro.scenarios.testbed, repro.soak\n"
        "assert repro.cli.main(['drive', '--seconds', '0.05']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src_dir = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src_dir},
        check=True, capture_output=True, text=True, timeout=120,
    )
    assert done.stdout.splitlines()[-1] == "[]"
