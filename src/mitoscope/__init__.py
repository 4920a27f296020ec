"""mitoscope: a branched convolutional-LSTM engine that reconstructs short
cell-video sequences while extracting spatio-temporally localized event
classes, with a supervised variant, post-processing to point detections,
and a matching-based evaluation protocol.

All numerics are float64 numpy with hand-derived gradients; see
``tensor_core`` for the kernel layer and ``network`` for the model.
"""

from .conv_lstm import CellState, ConvLstmParams, bptt, init_params, step, unroll
from .data_pipeline import (
    Subsequence,
    SyntheticConfig,
    VideoSource,
    augment,
    build_subsequences,
    build_supervised_target,
    load_annotations,
    load_frames,
    save_annotations,
    spatial_windows,
    synth_generate,
    temporal_windows,
)
from .evaluation import MatchResult, Scores, f1_from_pr, match, prf1, timing_histogram
from .network import (
    BranchedModel,
    NetworkConfig,
    SupervisedModel,
    backward_supervised,
    backward_unsupervised,
    detect_events,
    encode,
    event_head,
    forward_supervised,
    forward_unsupervised,
    init_supervised,
    init_unsupervised,
    load_checkpoint,
    reconstruct,
    save_checkpoint,
)
from .postprocess import (
    Detection,
    PatchSequence,
    group_activations,
    locate_centroid,
    merge_global,
    rank_classes,
    threshold_detections,
)
from .training import TrainConfig, rmsprop_step, train

__version__ = "0.1.0"
