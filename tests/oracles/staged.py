"""Staged feature extraction (oracle for the folded inference GEMMs).

Inference folds the selected CWT points into one precomputed operator
(``FeaturePipeline`` and ``CompiledPipeline``).  These functions run the
stages it folds instead: per-point CWT evaluation, normalization, PCA,
then the classifier.
"""

from typing import Optional

import numpy as np

from repro.core.hierarchy import LevelModel
from repro.features.pipeline import FeaturePipeline


def transform_staged(
    pipeline: FeaturePipeline,
    traces: np.ndarray,
    adapt: Optional[bool] = None,
) -> np.ndarray:
    """Classifier features via ``CWT.transform_points`` + normalize + PCA."""
    traces = np.asarray(traces)
    if pipeline.config.use_cwt:
        values = pipeline._cwt.transform_points(traces, pipeline.points)
    else:
        values = pipeline._point_values(traces)
    values = pipeline._normalize(values, fit=False, adapt=adapt)
    return pipeline.pca.transform(values)


def predict_staged(
    model: LevelModel, windows: np.ndarray, adapt: Optional[bool] = None
) -> np.ndarray:
    """Class codes from the staged features and the level's classifier."""
    return model.classifier.predict(
        transform_staged(model.pipeline, windows, adapt=adapt)
    )
