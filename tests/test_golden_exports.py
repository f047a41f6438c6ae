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
        "lifetime.csv": "244fe55585876fee60b7a932e3803d3066f975a6dc89b471ce135d9b47a18406",
        "lifetime.json": "65d1922c0d9a6f5afe77d657e038b5f32db7120fcfde3763d265ebd7903f10f3",
    },
    "magnetic_lifetime": {
        "magnetic_lifetime.csv": "2f6432e8d15a78fe57f2824a54627cb21d9dd7fa26b4e4bb767d08ae2f9a6bf9",
        "magnetic_lifetime.json": "3c745555f5233f3a228671d10ce7106daa10768b1fd121524502e1d5194d4380",
    },
    "mot_monitor": {
        "mot_monitor.csv": "d6f42b0dbbf4d7afeec4f7e8c8ed6fdcc19a360be80dc2a11910fa158e5e0b3c",
        "mot_monitor.json": "32333cbc33d2addf32cfeb688e07167dc29f06be545f60633d812ce12389b423",
        "mot_monitor_mot_monitor.csv": "12175c3c9203aee2a0d6b62e251c7cf407f2950c16b91d41f952127ed6b4475f",
    },
    "relaxation": {
        "relaxation.csv": "7bba225f665458f013caa35f5bf00dbcf9c21447ab99870ae9ffc3a2b7b6339b",
        "relaxation.json": "ed1b82d36f7951b0b9fa3e0b8134ca34671a34f94cc916bc22321be78facf032",
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
