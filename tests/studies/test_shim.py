"""Package import behaviour of ``repro`` and ``repro.experiments``."""

import subprocess
import sys

import pytest


def test_unknown_attribute_still_raises():
    import repro.experiments as experiments
    with pytest.raises(AttributeError):
        experiments.no_such_name


def test_repro_import_stays_light_but_studies_resolves():
    """`import repro` must not drag in the studies/experiments stack;
    `repro.studies` still resolves lazily afterwards."""
    script = (
        "import sys\n"
        "import repro\n"
        "assert 'repro.studies' not in sys.modules\n"
        "assert 'repro.experiments' not in sys.modules\n"
        "assert repro.studies.LoadSpec is not None  # lazy attr\n"
        "assert 'repro.studies' in sys.modules\n"
        "print('light')\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip().endswith("light")
