"""Dataset as arrays, ingestion, connectome construction, synthetic data,
and stratified splitting."""

from .connectome import check_connectomes, pearson_connectome, validate_time_series
from .io import (
    Dataset,
    DatasetError,
    load_dataset,
    read_connectome_file,
    write_connectome_file,
    write_dataset,
)
from .split import SplitSpec, stratified_split
from .synth import ClassSpec, synth_dataset

__all__ = [
    "check_connectomes", "pearson_connectome", "validate_time_series",
    "Dataset", "DatasetError", "load_dataset", "write_dataset",
    "read_connectome_file", "write_connectome_file",
    "SplitSpec", "stratified_split",
    "ClassSpec", "synth_dataset",
]
