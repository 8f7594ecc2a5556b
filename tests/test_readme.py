"""The README's Layout section agrees with the package."""

import re
from pathlib import Path

import exactgl

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_counts_the_user_api():
    counts = re.findall(r"the user API \((\d+) names\)", README.read_text())
    assert counts == [str(len(exactgl.__all__))]
