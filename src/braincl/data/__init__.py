"""Dataset model, ingestion, connectome construction, synthetic data,
and stratified splitting."""

from .connectome import Connectome, check_connectomes, pearson_connectome, validate_time_series
from .io import (
    Dataset,
    DatasetError,
    Sample,
    load_dataset,
    read_connectome_file,
    write_connectome_file,
    write_dataset,
)
from .split import SplitSpec, stratified_split
from .synth import ClassSpec, synth_dataset

__all__ = [
    "Connectome", "check_connectomes", "pearson_connectome", "validate_time_series",
    "Sample", "Dataset", "DatasetError", "load_dataset", "write_dataset",
    "read_connectome_file", "write_connectome_file",
    "SplitSpec", "stratified_split",
    "ClassSpec", "synth_dataset",
]
