"""scripts/make_benchmarks.py still writes the checked-in benchmarks/."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("make_benchmarks", ROOT / "scripts" / "make_benchmarks.py")
make_benchmarks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_benchmarks)


def without_times(manifest_path: Path) -> list:
    """The manifest's entries without ``baseline_s``, the wall-clock time of each solve."""
    entries = json.loads(manifest_path.read_text(encoding="utf-8"))
    return [{k: v for k, v in entry.items() if k != "baseline_s"} for entry in entries]


def test_the_generator_reproduces_the_checked_in_suites(tmp_path):
    # The script's defaults: seed 7 and a 12 s limit per validating solve,
    # which keeps every candidate (the slowest solve takes well under 1 s).
    make_benchmarks.write_handwritten(tmp_path)
    make_benchmarks.write_generated(tmp_path, 7, 12.0)
    checked_in = ROOT / "benchmarks"
    for suite in ("handwritten", "generated"):
        made = sorted(p.name for p in (tmp_path / suite).iterdir())
        assert made == sorted(p.name for p in (checked_in / suite).iterdir())
        for name in made:
            if name == "manifest.json":
                assert without_times(tmp_path / suite / name) == without_times(checked_in / suite / name)
            else:
                assert (tmp_path / suite / name).read_bytes() == (checked_in / suite / name).read_bytes(), name
