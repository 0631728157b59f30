from .events import IngestResult, ingest_events
from .features import CTDSchema, build_ctd_dataset, default_schema

__all__ = [
    "CTDSchema",
    "IngestResult",
    "build_ctd_dataset",
    "default_schema",
    "ingest_events",
]
