import os
import tempfile

from hypothesis import configuration

# hypothesis caches constants it finds in the source under its home
# directory, by default ./.hypothesis; keep that out of the working tree
configuration.set_hypothesis_home_dir(
    os.path.join(tempfile.gettempdir(), "robustq-hypothesis"))
