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
        "detection_demo.csv": "089f59f40e6743c6216f129d36e2689580535ffdd5b578a5c5da348fd18c714f",
        "detection_demo.json": "30630084d3c4682274bcf44cbeb1d5a9deba1e62259e851a0835c4b3a817592e",
        "detection_demo_detect_f3.csv": "1f0fc57a3c1fde3cc51c79c63ee280851f39ccf761eca6df36030cf3f9f21a23",
        "detection_demo_detect_f4.csv": "548a06747d7ec49c6eed95bf658f7d52a246867ee8aae33523556a9a30115a81",
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
        "relaxation.csv": "a1f1fc257e464febf00c702861f58adb1d724d1c367e6a3bc066f54e3010c2b8",
        "relaxation.json": "2c2c1d148e863106591db323b8380c02a751092b1e60e58755205875a99fc9c7",
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
