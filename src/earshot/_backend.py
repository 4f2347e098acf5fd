# Serves only earshot.BACKEND and bench/tracer.py; the package calls _kernels_np directly.
from . import _kernels_np as kernels

BACKEND = "numpy"
