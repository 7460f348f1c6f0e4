"""Background-model ablation: global threshold vs per-pixel Gaussian.

Not a paper experiment — an engineering ablation of the front end.  Under
spatially varying sensor noise (a flickering band: wet pavement, a
failing sensor column) the paper-era median-plus-global-threshold model
floods with false detections, while the per-pixel Gaussian model adapts
its threshold locally and stays clean at a modest recall cost inside the
band.
"""

import numpy as np

from repro.sim import tunnel
from repro.vision import (
    BackgroundModel,
    GaussianBackgroundModel,
    SegmentationPipeline,
    VideoClip,
    evaluate_detections,
)


def _detection_quality(sim, background, sigma_map):
    clip = VideoClip.from_simulation(sim, noise_sigma=sigma_map,
                                     render_seed=1)
    detections = SegmentationPipeline(background=background,
                                      use_spcpe=False).process(clip)
    quality = evaluate_detections(sim, detections)
    return quality.recall, quality.false_positives_per_frame


def test_gaussian_background_survives_flicker_band(benchmark):
    def run():
        sim = tunnel(n_frames=400, seed=9, spawn_interval=(50.0, 80.0),
                     n_wall_crashes=1, n_sudden_stops=1)
        sigma = np.full((sim.height, sim.width), 2.0)
        sigma[:, 120:200] = 28.0  # flickering reflection band
        median = _detection_quality(sim, BackgroundModel(), sigma)
        gauss = _detection_quality(sim, GaussianBackgroundModel(), sigma)
        return median, gauss

    (median_recall, median_fp), (gauss_recall, gauss_fp) = \
        benchmark.pedantic(run, rounds=1, iterations=1)
    # The global threshold floods inside the band...
    assert median_fp > 5.0
    # ...the per-pixel Gaussian stays clean...
    assert gauss_fp < 1.0
    # ...at a bounded recall cost (vehicles inside the band are dimmer
    # than the locally inflated threshold).
    assert gauss_recall > 0.75
    assert median_recall > 0.9
