import tempfile
from pathlib import Path

from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis caches the constants it reads from source files while pytest
# collects, even with database=None; keep that cache out of the working tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "strandtrace-hypothesis")
