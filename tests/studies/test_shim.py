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


def test_estimation_and_a_study_load_no_scipy():
    """Model estimation (serial static sweeps, lockstep records, OLS
    fits) and a study run need numpy alone: its LAPACK is the only one
    the process loads."""
    script = (
        "import sys\n"
        "import repro\n"
        "from repro.studies import LoadSpec, RunnerOptions, Study\n"
        "study = Study(patterns=('0110',),\n"
        "              loads=(LoadSpec(kind='r', r=50.0),\n"
        "                     LoadSpec(kind='rx', z0=50.0, td=1e-9,\n"
        "                              r=50.0)),\n"
        "              options=RunnerOptions(n_workers=1))\n"
        "result = study.run()\n"
        "assert len(result) == 2 and not result.failures\n"
        "print('scipy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
