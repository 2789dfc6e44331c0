import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# ``--hypothesis-profile=ci`` replays the same examples on every run, so a
# continuous-integration failure reproduces locally.
settings.register_profile("ci", derandomize=True)
