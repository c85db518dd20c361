"""The image branch: undistort, binarize, crop, resize, HOG.

Renders a synthetic hand silhouette, pushes it through every stage of
the image pipeline, and inspects the resulting descriptor.
"""

import numpy as np

from gesturelab import (
    HogParams,
    UndistortionMap,
    binarize,
    compute_hog,
    crop_to_foreground,
    hog_length,
    otsu_threshold,
    resize_bilinear,
    undistort,
)
from gesturelab.data import default_templates, generate_synthetic

# Grab one synthetic sample (the open-palm gesture); its image is a
# rendered hand silhouette.
sample = generate_synthetic(default_templates(), subjects=1, reps=1, seed=7)[4]
raw = sample.images[0]
print("raw image:", raw.shape, "foreground px:", int((raw > 0).sum()))

# Sensor images normally need rectification through a calibration grid.
# The identity grid is a no-op; real devices ship their own map.
umap = UndistortionMap.identity(8, 8)
rectified = undistort(raw, umap, (240, 240))
print("identity rectification exact:", np.array_equal(rectified, raw))

# Otsu picks the threshold that best separates hand from background.
print("otsu threshold:", otsu_threshold(rectified))
binary = binarize(rectified)

# Crop to the hand, pad a little, and normalize the geometry for HOG.
cropped = crop_to_foreground(binary, margin=4)
print("cropped to:", cropped.shape)
square = resize_bilinear(cropped, (64, 64))

params = HogParams()
descriptor = compute_hog(square, params)
print("descriptor length:", len(descriptor), "closed form:", hog_length(64, 64, params))
print("value range: [%.3f, %.3f]" % (descriptor.min(), descriptor.max()))

# Orientation energy per bin, summed over all blocks: silhouette edges
# spread over many orientations, unlike e.g. a pure vertical step edge.
per_bin = descriptor.reshape(-1, 9).sum(axis=0)
for b, v in enumerate(per_bin):
    bar = "#" * int(40 * v / per_bin.max())
    print(f"bin {b} ({b * 20:3d} deg): {bar}")

# Contrast does not matter: block normalization cancels any uniform
# intensity scaling (here 0/255 becomes 0/127).
half = (binary // 2).astype(np.uint8)
print(
    "max HOG change at 50%% contrast: %.1e"
    % np.abs(compute_hog(half) - compute_hog(binary)).max()
)
