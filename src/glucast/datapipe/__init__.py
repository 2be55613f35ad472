"""Raw glucose CSV ingestion and the preprocessing chain."""

from .archive import (
    VARIABLES,
    read_archive,
    read_archive_split,
    read_patient_archive,
    read_sample_csv,
    read_scaling_json,
    write_patient_archive,
    write_sample_csv,
    write_scaling_json,
)
from .pipeline import (
    SampleSet,
    Scaling,
    SplitSpec,
    build_samples,
    clean_spikes,
    preprocess_series,
    recover_missing,
    resample,
    split,
    standardize,
)
from .series import GlucoseSeries, read_series_csv, write_series_csv

__all__ = [
    "GlucoseSeries", "read_series_csv", "write_series_csv",
    "SampleSet", "Scaling", "SplitSpec",
    "clean_spikes", "resample", "build_samples", "recover_missing",
    "split", "standardize", "preprocess_series",
    "write_sample_csv", "read_sample_csv", "write_scaling_json",
    "read_scaling_json", "write_patient_archive", "read_patient_archive",
    "read_archive", "read_archive_split", "VARIABLES",
]
