"""Golden report digests: `dexi explore` over the bundled corpus must produce
byte-identical reports across refactors of the simulator and the search.

Each digest is the sha256 of the report file written by
`dexi explore --config <label> [--reduction] --seed 3 --out <file>`. A change
that alters a report on purpose must regenerate these digests and say why.
"""

from __future__ import annotations

import hashlib

import pytest

from dexi.cli import main
from dexi.indexing import CONFIG_LABELS

GOLDEN_SHA256 = {
    ("3milebeach", False): "4bba7abb94b519b0fad5e827b8ce7e16709d009c634d27f448290144d45fced9",
    ("3milebeach", True): "23b4e758b2175f9616bad45301d473a1ab391f707121c0dd5f2bdb6f7dd30864",
    ("filibuster", False): "81c47ddfda9eeeafa3f94d06d3217f4f0edd348b5b033d060853a9c818b2bd2a",
    ("filibuster", True): "d14cf86193a5b75b4a952a04ba9d4862bab344acb00b205ce8d20be27519f71d",
    ("full", False): "ecf90d54fb56053a77174e3b4c8a8e4c0a7c0c7b5a8514307a303cd1ff6acf74",
    ("full", True): "a0ad17ebead3950e0c68689086ddc54c5f4204ca6d1ef2397c90ab5516cce1d6",
    ("no-count", False): "1efb5bf8e1f6382563e03fadcbfba401603663f47504813d7e09f625a3342340",
    ("no-count", True): "a94a529ab28fdc024e6904a1ce0a3582371749b32761255430cdbca050d1d9ac",
    ("no-count-stack", False): "b917ee92be8022d3c2c5a6892d620d63c42e95704f730d0d562cb544e440e463",
    ("no-count-stack", True): "520288501448d880d9252cd2e489b7f5f5c2bcccf7e9fb75e49e7d9fe55a0dff",
    ("no-path-count-stack", False): "2adbc8342001aff1eed6084b8d6889ee6b5bea187f18e61c5ef79079b8b27d21",
    ("no-path-count-stack", True): "7d4514953a038b3cb72b520775a9a8cf9a804d41e2faef3e62b211dd1648aeb8",
    ("no-stack", False): "37d98f248df61e727527fd87ea4b6de0eee0377bb8bac6cdbaa23dba7091fd7d",
    ("no-stack", True): "68396cf323bac57c53312d2bfa61f3ebf5e8e67b592ea974d8f7014e9010d8fa",
}


def test_every_config_label_has_digests():
    assert {label for label, _ in GOLDEN_SHA256} == set(CONFIG_LABELS)


@pytest.mark.parametrize("label,reduction", sorted(GOLDEN_SHA256))
def test_report_matches_golden_digest(label, reduction, tmp_path):
    out = tmp_path / "report.json"
    argv = ["explore", "--config", label, "--seed", "3", "--out", str(out)]
    if reduction:
        argv.append("--reduction")
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[(label, reduction)]
