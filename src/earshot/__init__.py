"""Acoustic detection of approaching vehicles behind blind corners.

The pipeline turns short multichannel recordings into direction-of-arrival
energy maps (SRP-PHAT over an azimuth grid), stacks a few consecutive maps
into a feature vector and classifies it into left / front / right / none with
a linear SVM.  A plan-view scene simulator with first-order wall reflections
generates labeled benchmarks, and the evaluation helpers reproduce the
cross-validation, baseline and microphone-count studies.

Each function and class is imported from its own module (``earshot.features``,
``earshot.classifier``, ...); the package root binds only ``BACKEND`` and
``__version__``.
"""

from ._backend import BACKEND

__version__ = "0.1.0"
