"""Golden SHA-256 digests of every export at the criterion-12 configs.

Criterion 12 only checks that two re-runs agree with each other; these
digests catch a change that silently alters every dataset. A change that
consumes the random streams differently must say so and update the digests
of the kinds it affects.
"""

import hashlib
import os

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
        "detection_demo.json": "c2b764c80c262067850efe34737093e556554f9cce224b8368ab0ac5e3e5c5b3",
        "detection_demo_detect_f3.csv": "1f0fc57a3c1fde3cc51c79c63ee280851f39ccf761eca6df36030cf3f9f21a23",
        "detection_demo_detect_f4.csv": "548a06747d7ec49c6eed95bf658f7d52a246867ee8aae33523556a9a30115a81",
    },
    "lifetime": {
        "lifetime.csv": "244fe55585876fee60b7a932e3803d3066f975a6dc89b471ce135d9b47a18406",
        "lifetime.json": "ab564924867b40c7a861e9f0e81ad24371fe1eec7ee4528a747916f9f72762f4",
    },
    "magnetic_lifetime": {
        "magnetic_lifetime.csv": "2f6432e8d15a78fe57f2824a54627cb21d9dd7fa26b4e4bb767d08ae2f9a6bf9",
        "magnetic_lifetime.json": "cb7c24ffaa55eb59d82d1dd6453a3b812c2101504b0c24ba3cdb641bb8fbed91",
    },
    "mot_monitor": {
        "mot_monitor.csv": "d6f42b0dbbf4d7afeec4f7e8c8ed6fdcc19a360be80dc2a11910fa158e5e0b3c",
        "mot_monitor.json": "f62213f3580a9c0b6b8e9e5a7e5ed385d4ec9cea3feedea4381eb134b76ac49c",
        "mot_monitor_mot_monitor.csv": "12175c3c9203aee2a0d6b62e251c7cf407f2950c16b91d41f952127ed6b4475f",
    },
    "relaxation": {
        "relaxation.csv": "7bba225f665458f013caa35f5bf00dbcf9c21447ab99870ae9ffc3a2b7b6339b",
        "relaxation.json": "833c70150f6915015c52be7cb6b6c3315c59c5f2a82dcbe91c184e5aca2483ae",
    },
    "transfer_efficiency": {
        "transfer_efficiency.csv": "634f7caa4394e5c29037566c8de751281a07d878744356e48803aa7eb0cbe670",
        "transfer_efficiency.json": "474afd779e5d6cb4724911e086e217ffff3388249e98f5e277dc70c3ecca0275",
    },
}


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_export_digests(kind, tmp_path, monkeypatch):
    monkeypatch.delenv("ATOMTRAP_OUTPUT_DIR", raising=False)
    cfg = parse_config(f"[experiment]\nkind = {kind}\nmaster_seed = 12\n{CONFIGS[kind]}\n")
    paths = export_dataset(run_experiment(cfg), str(tmp_path))
    digests = {os.path.basename(p): hashlib.sha256(open(p, "rb").read()).hexdigest()
               for p in paths}
    assert digests == DIGESTS[kind]
