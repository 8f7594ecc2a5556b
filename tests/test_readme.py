"""The README agrees with the package and with the BENCH files it cites."""

import json
import re
from pathlib import Path

import exactgl

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_counts_the_user_api():
    counts = re.findall(r"the user API \((\d+) names\)", README.read_text())
    assert counts == [str(len(exactgl.__all__))]


def test_every_bench_file_the_readme_names_records_its_environment():
    names = sorted(set(re.findall(r"BENCH_\w+\.json", README.read_text())))
    assert names
    for name in names:
        env = json.loads((README.parent / name).read_text())["env"]
        for key in ("numpy", "blas_threads", "cpu"):
            assert env.get(key) not in (None, ""), f"{name} lacks env.{key}"
