"""Acoustic detection of approaching vehicles behind blind corners.

The pipeline turns short multichannel recordings into direction-of-arrival
energy maps (SRP-PHAT over an azimuth grid), stacks a few consecutive maps
into a feature vector and classifies it into left / front / right / none with
a linear SVM.  A plan-view scene simulator with first-order wall reflections
generates labeled benchmarks, and the evaluation helpers reproduce the
cross-validation, baseline and microphone-count studies.
"""

from ._backend import BACKEND
from .audio import (
    ArrayGeometry,
    AudioClip,
    load_geometry,
    load_wav,
    save_geometry,
    wav_frames,
    write_wav,
)
from .beamform import AzimuthGrid, DoaResponse, argmax_doa, gcc_phat_cross, srp_phat, steering_delays
from .classifier import (
    SvmModel,
    classify_azimuth,
    doa_baseline,
    load_model,
    predict,
    save_model,
    train,
)
from .dataset import ManifestEntry, RecordingManifest, extract_samples, load_manifest, save_manifest
from .evaluate import cross_validate, doa_baseline_eval, mic_subset_study, sliding_window_eval
from .features import (
    DoaFeature,
    LabeledSample,
    PipelineConfig,
    augment_training_set,
    extract_feature,
    load_features,
    mirror,
    save_features,
)
from .stft import StftStack, band_select, stft
from .synth import Scenario, make_benchmark, render, t_junction_scenario

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "ArrayGeometry",
    "AudioClip",
    "AzimuthGrid",
    "DoaFeature",
    "DoaResponse",
    "LabeledSample",
    "ManifestEntry",
    "PipelineConfig",
    "RecordingManifest",
    "Scenario",
    "StftStack",
    "SvmModel",
    "argmax_doa",
    "augment_training_set",
    "band_select",
    "classify_azimuth",
    "cross_validate",
    "doa_baseline",
    "doa_baseline_eval",
    "extract_feature",
    "extract_samples",
    "gcc_phat_cross",
    "load_features",
    "load_geometry",
    "load_manifest",
    "load_model",
    "load_wav",
    "make_benchmark",
    "mic_subset_study",
    "mirror",
    "predict",
    "render",
    "save_features",
    "save_geometry",
    "save_manifest",
    "save_model",
    "sliding_window_eval",
    "srp_phat",
    "steering_delays",
    "stft",
    "t_junction_scenario",
    "train",
    "wav_frames",
    "write_wav",
]
