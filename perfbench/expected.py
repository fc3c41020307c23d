"""Pinned outputs of the box pipelines.

raw_* describe the enumerate_ldp catalog as write_catalog serialises it;
classified_sha256 the same catalog after classify_catalog.  The family and
case histograms count the tags classify_catalog assigns.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BoxExpectation:
    classes: int
    raw_cycles: int
    raw_sha256: str
    raw_bytes: int
    classified_sha256: str
    families: dict
    three_cases: dict


EXPECTED = {
    1: BoxExpectation(
        classes=11,
        raw_cycles=64,
        raw_sha256="0d83b58204ce52d17c158bc99a43723f90dee68937740e905d9a6fc82cce5f21",
        raw_bytes=1482,
        classified_sha256="50123f45421a1c90bb84f34d9c25fe815e928db9af364d0c001995a64ddf200a",
        families={"dais1": 1, "dais2": 1, "dais3": 1, "two2": 1, "two3": 1},
        three_cases={},
    ),
    2: BoxExpectation(
        classes=156,
        raw_cycles=1533,
        raw_sha256="cfd83e29a716aa8f66e3bde566857eb35a5ebb3adb3866e6bf3cdd79dd367cec",
        raw_bytes=21922,
        classified_sha256="ccb604a14416f4eeeeb9564da7ae4ad9693e8373f4a459fa5152eaefb640f8bc",
        families={"dais1": 3, "dais2": 3, "dais3": 3, "two1": 4, "two2": 15, "two3": 8, "three5": 19},
        three_cases={"picard_le_two": 17, "family_d5": 19, "blowup_of_picard3": 5},
    ),
    3: BoxExpectation(
        classes=13660,
        raw_cycles=137295,
        raw_sha256="1965ac4133bec9f91e2ccde2afd79254b2818be073d3cad34b3b507fb84539bb",
        raw_bytes=2167170,
        classified_sha256="f47ce14a08c225b8e9e63238ff473ba56e9d0f666c6d3113a3118e9aa339662e",
        families={"dais1": 5, "dais2": 5, "dais3": 5, "two1": 26, "two2": 83, "two3": 42, "three5": 372},
        three_cases={"picard_le_two": 263, "family_d5": 372, "blowup_of_picard3": 122},
    ),
}
