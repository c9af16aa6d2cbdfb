"""A dataset as the verbs get it: written by build_dataset, read by load_dataset."""

import tempfile
from pathlib import Path

from pgclab.attack import build_dataset, load_dataset
from pgclab.codegen import Geometry


def written_dataset(tmp_path, split_sizes, printer_params, seed, geometry=Geometry()):
    """build_dataset's files in a new directory under tmp_path, loaded with
    the scans of the first printer id."""
    root = Path(tempfile.mkdtemp(dir=tmp_path))
    build_dataset(split_sizes, geometry, printer_params, seed, root)
    return load_dataset(root, min(printer_params))
