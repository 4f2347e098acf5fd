# The benchmark (bench/tracer.py, bench/run.py) binds these two names; NumPy is the only kernel module.
from . import _kernels_np as kernels

BACKEND = "numpy"
