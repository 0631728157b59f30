from .cleaning import DEFAULT_LANGUAGES, CleaningConfig, TrackRecord, clean, normalize_lyrics
from .scaling import ScalerParams, scaler_apply, scaler_fit, scaler_invert
from .split import SplitAssignment, stratified_split
from .synth import SynthData, SynthSpec, synth_generate

__all__ = [
    "DEFAULT_LANGUAGES",
    "CleaningConfig",
    "ScalerParams",
    "SplitAssignment",
    "SynthData",
    "SynthSpec",
    "TrackRecord",
    "clean",
    "normalize_lyrics",
    "scaler_apply",
    "scaler_fit",
    "scaler_invert",
    "stratified_split",
    "synth_generate",
]
