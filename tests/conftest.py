"""Test-session settings shared by every test module.

With ``CI`` set, as GitHub Actions sets it, hypothesis draws its examples
from a fixed seed (``derandomize=True``), so a rare random example cannot
make a CI run fail where the previous one passed; local runs keep drawing
new examples.  Each test's own ``settings`` still set its example count.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
