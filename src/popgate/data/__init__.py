from .cleaning import TrackRecord, clean, normalize_lyrics
from .scaling import ScalerParams, scaler_apply, scaler_fit, scaler_invert
from .split import SplitAssignment, stratified_split

__all__ = [
    "ScalerParams",
    "SplitAssignment",
    "TrackRecord",
    "clean",
    "normalize_lyrics",
    "scaler_apply",
    "scaler_fit",
    "scaler_invert",
    "stratified_split",
]
