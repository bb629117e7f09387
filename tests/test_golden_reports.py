"""Golden report and trace digests: `dexi explore` over the bundled corpus
must produce byte-identical reports and trace files across refactors of the
simulator and the search.

Each run is `dexi explore --config <label> [--reduction] --seed 3 --out <file>
--traces-out <dir>`. The report digest is the sha256 of the report file; the
trace digest is the sha256 of the directory's files listed in name order, one
`<name> <sha256 of its bytes>` line each. A change that alters a report or a
trace on purpose must regenerate these digests and say why.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

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


GOLDEN_TRACES_SHA256 = {
    ("3milebeach", False): "716b5051bbee2bbdae6146024edf3deb7f57d588a60c6c42ba7aae87a848a47e",
    ("3milebeach", True): "9c717b46b27f08be57bf7314be6dc51dbe3dba8e7015404518653737719f6d34",
    ("filibuster", False): "0a32426847827d2e89544218918a5f70d0e8f34141f0a0ec9f8697b64b9f1daa",
    ("filibuster", True): "a281adf4528bac2c3ac9c377981da770e9161f1c918694de54dc7836ec3da19c",
    ("full", False): "8c1bdd0a8d97a3de86ca262c6810bded9567ba14b84a608c65a170c8f32bdb62",
    ("full", True): "15c6bff54cd2f7309a07c70cf879ec1824429ebd9807b0a7189486040a350a74",
    ("no-count", False): "00a46878bae82be3b95671361daa1dcbf928e33429ff43bb285885d6852d4d94",
    ("no-count", True): "8173947727c9d69f8c677198bc16b04732ea1edbe0cf6af884a5977fd057455d",
    ("no-count-stack", False): "e1c0e664ff2fcfe6dce7f3683fb36fede5ef4cd7a3bd5b34fc6bbeb72906820c",
    ("no-count-stack", True): "07a3b046396828974c9e5b547c34775f03efed6b9efda0a35ffc0cb52ca077a6",
    ("no-path-count-stack", False): "ce8bd5f566164ee9f92ad69bc6a06e28a291f9e80f95fb94dac8dcea55f64494",
    ("no-path-count-stack", True): "ce8bd5f566164ee9f92ad69bc6a06e28a291f9e80f95fb94dac8dcea55f64494",
    ("no-stack", False): "8892d2ebfe7365e0c70fee820e9d9dbe34a0fff577cb65b62caa9a02bd994e1e",
    ("no-stack", True): "9aba478ed287fa648d7c0e0d68caab320adebcfe1270be0e07fe61d4c56e91a4",
}


def traces_digest(directory: Path) -> str:
    manifest = "".join(
        f"{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}\n"
        for path in sorted(directory.iterdir())
    )
    return hashlib.sha256(manifest.encode()).hexdigest()


def test_every_config_label_has_digests():
    assert {label for label, _ in GOLDEN_SHA256} == set(CONFIG_LABELS)
    assert GOLDEN_TRACES_SHA256.keys() == GOLDEN_SHA256.keys()


@pytest.mark.parametrize("label,reduction", sorted(GOLDEN_SHA256))
def test_report_matches_golden_digest(label, reduction, tmp_path):
    out, traces = tmp_path / "report.json", tmp_path / "traces"
    argv = ["explore", "--config", label, "--seed", "3", "--out", str(out),
            "--traces-out", str(traces)]
    if reduction:
        argv.append("--reduction")
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[(label, reduction)]
    assert traces_digest(traces) == GOLDEN_TRACES_SHA256[(label, reduction)]
