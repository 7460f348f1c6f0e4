"""PCA-based vehicle classification (paper Section 3.1, ref [13]).

"The last phase of the framework is to classify vehicle objects into
different classes such as SUVs, pick-up trucks, and cars ... based on
Principal Component Analysis."  We reproduce that stage from scratch:
vehicle patches are resized to a canonical resolution, projected onto the
top principal components of the training set, and classified by the
nearest class centroid in eigenspace.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.utils import check_positive

__all__ = [
    "resize_patch",
    "canonicalize_orientation",
    "PCAVehicleClassifier",
    "training_set_from_sim",
    "classify_tracks",
    "default_classifier",
]


def canonicalize_orientation(patch: np.ndarray) -> np.ndarray:
    """Rotate a patch so the object's long axis is horizontal.

    Vehicles appear in two orientations (driving horizontally or
    vertically); the classifier should not care.  The dominant axis is
    estimated from the second moments of the absolute intensity deviation,
    and the patch is transposed when the vertical spread wins.
    """
    patch = np.asarray(patch, dtype=float)
    dev = np.abs(patch - patch.mean())
    total = dev.sum()
    if total <= 0:
        return patch
    ys, xs = np.mgrid[0 : patch.shape[0], 0 : patch.shape[1]]
    mx = (dev * xs).sum() / total
    my = (dev * ys).sum() / total
    var_x = (dev * (xs - mx) ** 2).sum() / total
    var_y = (dev * (ys - my) ** 2).sum() / total
    return patch.T if var_y > var_x else patch


def resize_patch(patch: np.ndarray,
                 shape: tuple[int, int] = (16, 16)) -> np.ndarray:
    """Nearest-neighbour resize of a 2-D patch to ``shape`` (float64)."""
    patch = np.asarray(patch, dtype=float)
    if patch.ndim != 2 or patch.size == 0:
        raise ConfigurationError(
            f"patch must be non-empty 2-D, got shape {patch.shape}"
        )
    target_h, target_w = shape
    check_positive("target height", target_h)
    check_positive("target width", target_w)
    src_h, src_w = patch.shape
    rows = np.minimum(
        (np.arange(target_h) * src_h / target_h).astype(int), src_h - 1)
    cols = np.minimum(
        (np.arange(target_w) * src_w / target_w).astype(int), src_w - 1)
    return patch[np.ix_(rows, cols)]


class PCAVehicleClassifier:
    """Eigen-vehicle classifier: PCA projection + nearest class centroid.

    Parameters
    ----------
    n_components:
        Size of the eigenspace (clipped to the training-set rank).
    patch_shape:
        Canonical patch resolution every input is resized to.
    """

    def __init__(self, n_components: int = 8,
                 patch_shape: tuple[int, int] = (16, 16)) -> None:
        check_positive("n_components", n_components)
        self.n_components = int(n_components)
        self.patch_shape = (int(patch_shape[0]), int(patch_shape[1]))
        self._mean: np.ndarray | None = None
        self._components: np.ndarray | None = None
        self._centroids: dict[str, np.ndarray] = {}

    @property
    def is_fitted(self) -> bool:
        return self._components is not None

    @property
    def classes(self) -> list[str]:
        return sorted(self._centroids)

    def _vectorize(self, patches) -> np.ndarray:
        rows = [
            resize_patch(canonicalize_orientation(p), self.patch_shape).ravel()
            for p in patches
        ]
        matrix = np.asarray(rows, dtype=float)
        # Per-patch normalization: remove brightness and contrast so the
        # classifier keys on shape, not paint color.
        matrix -= matrix.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        return matrix / np.maximum(norms, 1e-12)

    def fit(self, patches, labels) -> "PCAVehicleClassifier":
        """Fit the eigenspace and class centroids.

        ``patches`` is a sequence of 2-D arrays, ``labels`` the matching
        class names.
        """
        labels = list(labels)
        patches = list(patches)
        if len(patches) != len(labels):
            raise ConfigurationError(
                f"{len(patches)} patches but {len(labels)} labels"
            )
        if len(set(labels)) < 2:
            raise ConfigurationError("need at least two classes to fit")
        matrix = self._vectorize(patches)
        self._mean = matrix.mean(axis=0)
        centered = matrix - self._mean
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        k = min(self.n_components, vt.shape[0])
        self._components = vt[:k]
        projected = centered @ self._components.T
        self._centroids = {
            label: projected[np.asarray(labels) == label].mean(axis=0)
            for label in set(labels)
        }
        return self

    def transform(self, patches) -> np.ndarray:
        """Project patches into the eigenspace; (n, k) array."""
        if self._components is None or self._mean is None:
            raise NotFittedError("fit() the classifier first")
        matrix = self._vectorize(patches)
        return (matrix - self._mean) @ self._components.T

    def predict(self, patches) -> list[str]:
        """Class name per patch (nearest centroid in eigenspace)."""
        projected = self.transform(patches)
        names = self.classes
        centroids = np.stack([self._centroids[c] for c in names])
        dists = np.linalg.norm(
            projected[:, None, :] - centroids[None, :, :], axis=2)
        return [names[int(i)] for i in np.argmin(dists, axis=1)]


def default_classifier(*, per_class: int = 40,
                       seed: int = 0) -> PCAVehicleClassifier:
    """A classifier fitted on the simulator's vehicle templates."""
    patches, labels = training_set_from_sim(per_class=per_class, seed=seed)
    return PCAVehicleClassifier(n_components=10).fit(patches, labels)


def classify_tracks(
    clip,
    tracks,
    classifier: PCAVehicleClassifier | None = None,
    *,
    samples_per_track: int = 3,
    patch_half: int = 16,
) -> dict[int, str]:
    """Vehicle class per track, by majority vote over sampled frames.

    This is the paper's Section 3.1 closing stage ("classify vehicle
    objects into different classes such as SUVs, pick-up trucks, and
    cars"): for each track, patches are cut from the clip around the
    tracked centroid at a few well-separated frames, classified in
    eigenspace, and the majority class wins; a tie goes to the class
    voted at the earliest sampled frame.  Tracks whose patches never
    fit inside the frame are labelled ``"unknown"``.
    """
    check_positive("samples_per_track", samples_per_track)
    check_positive("patch_half", patch_half)
    if classifier is None:
        classifier = default_classifier()
    height, width = clip.shape
    out: dict[int, str] = {}
    for track in tracks:
        frames = track.frame_array()
        points = track.point_array()
        take = min(samples_per_track, len(frames))
        picks = np.linspace(0, len(frames) - 1, take).round().astype(int)
        patches = []
        for i in picks:
            x, y = points[i]
            x0, y0 = int(round(x)) - patch_half, int(round(y)) - patch_half
            x1, y1 = x0 + 2 * patch_half, y0 + 2 * patch_half
            if x0 < 0 or y0 < 0 or x1 > width or y1 > height:
                continue
            frame = np.asarray(clip.get(int(frames[i])), dtype=float)
            patches.append(frame[y0:y1, x0:x1])
        if not patches:
            out[track.track_id] = "unknown"
            continue
        votes = Counter(classifier.predict(patches))
        out[track.track_id] = votes.most_common(1)[0][0]
    return out


def training_set_from_sim(
    *,
    per_class: int = 40,
    noise_sigma: float = 2.0,
    seed: int = 0,
) -> tuple[list[np.ndarray], list[str]]:
    """Render labelled vehicle patches with the simulator's templates.

    Each sample is one vehicle drawn on a road background at a random
    sub-pixel offset with sensor noise, cut out with a fixed-size box so
    the absolute vehicle size — the strongest class cue — survives the
    classifier's canonical resize.
    """
    from repro.sim.render import _draw_vehicle
    from repro.sim.world import VEHICLE_TEMPLATES, VehicleState

    rng = np.random.default_rng(seed)
    patches: list[np.ndarray] = []
    labels: list[str] = []
    for kind in sorted(VEHICLE_TEMPLATES):
        length, width, intensity = VEHICLE_TEMPLATES[kind]
        for _ in range(per_class):
            horizontal = rng.random() < 0.5
            vx, vy = (2.0, 0.0) if horizontal else (0.0, 2.0)
            img = np.full((40, 40), 110.0)
            state = VehicleState(
                vid=0, kind=kind,
                x=20.0 + rng.uniform(-2, 2), y=20.0 + rng.uniform(-2, 2),
                vx=vx, vy=vy, length=length, width=width,
                intensity=intensity * rng.uniform(0.9, 1.1),
            )
            _draw_vehicle(img, state)
            img += rng.normal(0.0, noise_sigma, img.shape)
            half = 16  # fixed window: absolute size stays discriminative
            patch = img[20 - half : 20 + half, 20 - half : 20 + half]
            patches.append(patch)
            labels.append(kind)
    return patches, labels
