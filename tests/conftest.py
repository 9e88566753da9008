"""Test-session settings shared by every test module.

With ``CI`` set, as GitHub Actions sets it, hypothesis draws its examples
from a fixed seed (``derandomize=True``), so a rare random example cannot
make a CI run fail where the previous one passed; local runs keep drawing
new examples.  Each test's own ``settings`` still set its example count.

numpy's ComplexWarning is an error in every test: a complex value written
into a real array, such as a product state's float64 ``data``, would
otherwise lose its imaginary part with only a warning.
"""

import os

from hypothesis import settings

try:
    from numpy.exceptions import ComplexWarning
except ImportError:  # numpy 1.24 has it at the top level only
    from numpy import ComplexWarning

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def pytest_configure(config):
    config.addinivalue_line(
        "filterwarnings",
        f"error::{ComplexWarning.__module__}.{ComplexWarning.__qualname__}")
