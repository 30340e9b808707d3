import os
import sys

# make the in-tree reference oracle importable as `reference`
sys.path.insert(0, os.path.dirname(__file__))

# child interpreters (`python -m jbound`) import the package from src, as this
# process does through pytest's pythonpath setting
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
