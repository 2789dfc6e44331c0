import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# ``--hypothesis-profile=ci`` replays the same examples on every run, so a
# continuous-integration failure reproduces locally, and runs 300 examples
# of a test that leaves their number to the profile (the default is 100).
settings.register_profile("ci", derandomize=True, max_examples=300)
