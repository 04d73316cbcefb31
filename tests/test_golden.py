"""Golden CSV bytes for every shipped config at a reduced particle count.

Each config in `configs/` runs through the CLI with `"measure_time": false`
and its CSV is compared, by sha256, with a digest recorded before the
lockstep drivers were folded into one engine. A refactor of the drivers
must leave every draw and every per-element operation as it was, so these
bytes must not move.
"""

import hashlib
import json
from pathlib import Path

import pytest

from kdmc import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PARTICLES = 2000

GOLDEN = {
    "constants_check.json": "955f6a38a6aa84289a8f7631e928d2fb6c116f85e1be5548c5e3a13be1fb21ce",
    "histogram.json": "d71392633a6d265a2b223d2b6abd81802faca31b3a313c7ddc5c64a6903cffd2",
    "moments_check.json": "8ee5a4fdb0b7e17bf0bd93ce6b5316dc317d9ac7b827bd010e2887f731c822d2",
    "single_step_high.json": "6ab6cf00a3a0e86bc9ac9cdad4b0d2a88ea950de380463afef1b7338536c63a3",
    "single_step_low.json": "01bac316f7a1f9ba0098e38bc81da9d42b2e6577458d402fce4ca1c451433ce3",
    "speedup.json": "c4a9b99edc2706093451e1fc5b6665a63b38ce492caa695935efa93a0f997e3d",
}


# no shipped config takes more than one KD step (histogram.json has dt =
# t_end = 1), so this histogram run takes 100: at eps = 1 its substeps fall
# on both sides of the kernels' series switch. Recorded before the KD
# collision moved into C.
MULTISTEP = ("histogram.json", {"dt": 0.01, "t_end": 1.0, "eps_list": [0.1, 0.3, 1.0]},
             "e2af99f4f40c6aba44a1fc0f636ebdcfdc71d385fcb2a675a6e2a6e9214a7719")


def csv_digest(name, tmp_path, **overrides):
    doc = {**json.loads((CONFIGS / name).read_text()), **overrides, "measure_time": False}
    config = tmp_path / name
    config.write_text(json.dumps(doc))
    out = tmp_path / "out.csv"
    argv = [doc["experiment"], "--config", str(config), "--out", str(out),
            "--particles", str(PARTICLES)]
    # a self-check may miss its gate at this size; it still writes its CSV
    assert cli.main(argv) in (0, cli.EXIT_CHECK)
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_every_config_has_a_digest():
    assert sorted(p.name for p in CONFIGS.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_bytes_match_golden(name, tmp_path):
    assert csv_digest(name, tmp_path) == GOLDEN[name]


def test_multistep_kd_bytes_match_golden(tmp_path):
    name, overrides, digest = MULTISTEP
    assert csv_digest(name, tmp_path, **overrides) == digest
