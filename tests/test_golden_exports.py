"""Golden SHA-256 digests of every export at the criterion-12 configs.

Criterion 12 only checks that two re-runs agree with each other; these
digests catch a change that silently alters every dataset. A change that
consumes the random streams differently must say so and update the digests
of the kinds it affects.
"""

import hashlib
import os
from pathlib import Path

import pytest

from atomtrap import export_dataset, parse_config, run_experiment

# the configs of criterion 12, master_seed 12
CONFIGS = {
    "lifetime": "repetitions = 5",
    "magnetic_lifetime": "repetitions = 5",
    "transfer_efficiency": "repetitions = 50",
    "relaxation": "repetitions = 2",
    "mot_monitor": "schedule_s = 20",
    "detection_demo": "",
}

DIGESTS = {
    "detection_demo": {
        "detection_demo.csv": "79bc119a11af6874341298d7fd63576e4fe159f3a342edbf5b0f4226cd126560",
        "detection_demo.json": "a11a5b1fb71dd5df5f358be56f172dd84f2869785e7a7db40ef5f5e431f731fd",
        "detection_demo_detect_f3.csv": "1f0fc57a3c1fde3cc51c79c63ee280851f39ccf761eca6df36030cf3f9f21a23",
        "detection_demo_detect_f4.csv": "62a6e6ac5eb56ddea41af860f67363bf7e8a5b979b8dac26fa5d98139da16a31",
    },
    "lifetime": {
        "lifetime.csv": "91459b2fcb81ed3e1fcbb50eecd081539a0def8536d182843eea5585bc9cf77a",
        "lifetime.json": "332c6dedfe8e26ab7ee931cfd6dfcad9bf6608e77f918dbb953c79d410ce9c7f",
    },
    "magnetic_lifetime": {
        "magnetic_lifetime.csv": "1c7c73576e37b498d4a189dffa9298ddcac4b7a79a77248e93a4dc3e810b2cac",
        "magnetic_lifetime.json": "3691683f39cad4b2acd7e2a744a5d145df68e1adb257857cae5b60c5e7b0e18a",
    },
    "mot_monitor": {
        "mot_monitor.csv": "d6f42b0dbbf4d7afeec4f7e8c8ed6fdcc19a360be80dc2a11910fa158e5e0b3c",
        "mot_monitor.json": "32333cbc33d2addf32cfeb688e07167dc29f06be545f60633d812ce12389b423",
        "mot_monitor_mot_monitor.csv": "12175c3c9203aee2a0d6b62e251c7cf407f2950c16b91d41f952127ed6b4475f",
    },
    "relaxation": {
        "relaxation.csv": "e7ec9490fd70f0b960a12ebf12542a2abfd4537f7e71121facf48855b8121094",
        "relaxation.json": "ade616f529976879ccdfca302035691a306fdf8699c6ca57ca4a704fc5fc8432",
    },
    "transfer_efficiency": {
        "transfer_efficiency.csv": "634f7caa4394e5c29037566c8de751281a07d878744356e48803aa7eb0cbe670",
        "transfer_efficiency.json": "7322b9aa36e0e6135ccf83a6188832bf540f6444154ddf7dc594923527fbf750",
    },
}


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_export_digests(kind, tmp_path):
    cfg = parse_config(f"[experiment]\nkind = {kind}\nmaster_seed = 12\n{CONFIGS[kind]}\n")
    paths = export_dataset(run_experiment(cfg), str(tmp_path))
    digests = {os.path.basename(p): hashlib.sha256(Path(p).read_bytes()).hexdigest()
               for p in paths}
    assert digests == DIGESTS[kind]
