"""Byte-identity gate: the artifacts of a fixed scenario set, by digest.

Runs ``scripts/artifact_digests.py``'s runs for the shipped scenarios
with their sample-selection edges (``edge:*``) and appended sections
(``append:*``): 413 lines, the subset of the script's full corpus that
covers every job's success path and the selection edges. It requires
them equal to ``artifact_digests.txt`` beside this file. A change that
alters an exit code, a message or one artifact byte fails here.

The digests hold numpy's float results, so the file is valid for the
numpy it was made with: numpy 2.4.6 on x86-64 Linux, Python 3.11. A
change that alters the bytes on purpose regenerates the file in the same
commit and names the changed lines and the reason in CHANGES.md:

    PYTHONPATH=src python3 tests/test_byte_identity.py
"""

import runpy
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "artifact_digests.txt"


def gate_lines():
    """The digest lines of every shipped text's ``shipped``, ``edge:*`` and
    ``append:*`` variants, in the script's order."""
    script = runpy.run_path(str(ROOT / "scripts" / "artifact_digests.py"))
    lines = []
    for path in sorted((ROOT / "scenarios").glob("*.ini")):
        text = path.read_text(encoding="utf-8")
        for variant, variant_text in script["corpus"](text):
            if variant == "shipped" or variant.startswith(("edge:",
                                                           "append:")):
                lines += script["digest_text"](
                    f"{path.name}:{variant}", variant_text,
                    script["JOB_ORDERS"].get(variant, script["JOBS"]))
    return lines


def test_artifacts_match_the_reference_digests():
    expected = REFERENCE.read_text(encoding="utf-8").splitlines()
    actual = gate_lines()
    changed = [(old, new) for old, new in zip(expected, actual) if old != new]
    assert len(actual) == len(expected) == 413
    assert changed == [], (f"{len(changed)} digest lines differ "
                           f"(numpy {np.__version__}); first: {changed[0]}")


if __name__ == "__main__":
    REFERENCE.write_text("".join(f"{line}\n" for line in gate_lines()),
                         encoding="utf-8")
