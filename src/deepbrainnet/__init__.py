"""Desk-scale brain-MRI classification pipeline.

Preprocessing and enhancement of 8-bit grayscale images, fuzzy c-means
segmentation, a small two-branch convolutional classifier (residual plus
depthwise-separable branches), and a full multiclass evaluation suite, all
reproducible from a single seed.
"""

__version__ = "0.1.0"

from . import dataio, fcm, imaging, metrics, nnet  # noqa: F401
