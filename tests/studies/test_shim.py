"""``repro.experiments`` keeps forwarding the supported sweep names."""

import subprocess
import sys

import pytest


def test_package_reexports_do_not_warn():
    """`from repro.experiments import LoadSpec` (the supported spelling)
    resolves to the repro.studies objects without any warning."""
    script = (
        "import warnings\n"
        "warnings.simplefilter('error', DeprecationWarning)\n"
        "from repro.experiments import (LoadSpec, CoupledLoadSpec,\n"
        "    SpectralSpec, Scenario, ScenarioRunner, SweepResult,\n"
        "    scenario_grid, CORNERS, SweepDiskCache, AntennaModel)\n"
        "import repro.experiments, repro.studies\n"
        "for name in repro.experiments._STUDY_NAMES:\n"
        "    assert getattr(repro.experiments, name) is \\\n"
        "        getattr(repro.studies, name), name\n"
        "print('clean')\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip().endswith("clean")


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
