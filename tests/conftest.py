import os
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Property tests draw the same examples on every run and keep no example
# database. Hypothesis still caches source constants and unicode tables;
# those go to the system temp directory, so a run leaves no .hypothesis/
# directory in the checkout.
settings.register_profile("earlyflow", derandomize=True, database=None, deadline=None)
settings.load_profile("earlyflow")
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "earlyflow-hypothesis"))


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if not name.startswith("test_criterion"):
        return
    if report.when == "setup" and report.skipped:
        print(f"\n[acceptance] {name}: SKIP")
    elif report.when == "call":
        print(f"\n[acceptance] {name}: {'PASS' if report.passed else 'FAIL'}")
