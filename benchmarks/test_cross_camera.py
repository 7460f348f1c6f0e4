"""Cross-camera retrieval with plane normalization (paper future work).

Paper Section 6.2 closes by noting that mining the whole database at once
requires normalizing clips "taken at different locations with different
camera parameters".  This bench merges two intersection clips shot
through an overhead and a strongly tilted camera, and compares raw
image-plane features against features back-projected onto the road plane
via DLT-calibrated homographies.
"""

from benchmarks.conftest import record_experiment
from repro.eval.experiments import cross_camera


def test_cross_camera_normalization(benchmark):
    result = benchmark.pedantic(lambda: cross_camera(),
                                rounds=1, iterations=1)
    record_experiment(result)
    raw = result.series["raw_image_plane"]
    norm = result.series["plane_normalized"]
    # Normalization must not hurt, and here it visibly helps the final
    # accuracy on the merged corpus.
    assert norm[-1] >= raw[-1]
    # Both variants learn something over their initial round.
    assert norm[-1] > norm[0]
    assert raw[-1] > raw[0]
