"""mitoscope: a branched convolutional-LSTM engine that reconstructs short
cell-video sequences while extracting spatio-temporally localized event
classes, with a supervised variant, post-processing to point detections,
and a matching-based evaluation protocol.

All numerics are float64 numpy with hand-derived gradients. The modules
are the API, imported by name (``from mitoscope import network``):
``tensor_core`` is the kernel layer and ``network`` the model.
"""

__version__ = "0.1.0"
