from .events import DEFAULT_WINDOW, IngestResult, ingest_events
from .features import CTDSchema, build_ctd_dataset, default_schema

__all__ = [
    "DEFAULT_WINDOW",
    "CTDSchema",
    "IngestResult",
    "build_ctd_dataset",
    "default_schema",
    "ingest_events",
]
