import os
import sys

# The benchmark's tests import the program from the checkout's src/.
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)
