"""SHA-256 digests of small fixed synthetic datasets.

`tests/data/synth_digests.json` holds, for each case below, one digest
of the image bytes and one of the frame arrays that
`generate_synthetic` returns, with the numpy version that wrote it.
`tests/test_data.py` recomputes them.  A change that alters the
synthesized bits on purpose regenerates the file with

    PYTHONPATH=src python tests/synth_digests.py

and says which cases changed, and why, in `CHANGES.md`.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from gesturelab.data import default_templates, generate_synthetic

DIGEST_PATH = Path(__file__).parent / "data" / "synth_digests.json"

# name -> (template noise as (pos mm, rot deg), generate_synthetic kwargs)
CASES = {
    "seed7_default": ((3.0, 10.0), dict(subjects=3, reps=10, seed=7)),
    "seed7_40mm_45deg": ((40.0, 45.0), dict(subjects=3, reps=10, seed=7)),
    "seed7_size32": ((3.0, 10.0), dict(subjects=3, reps=10, seed=7, image_size=32)),
}


def case_digests(noise, kwargs):
    """{"images": sha256, "frames": sha256} of one synthesized dataset."""
    samples = generate_synthetic(default_templates(*noise), **kwargs)
    images, frames = hashlib.sha256(), hashlib.sha256()
    for s in samples:
        for img in s.images:
            images.update(repr((img.shape, img.dtype.str)).encode())
            images.update(np.ascontiguousarray(img).tobytes())
        f = s.frame
        frames.update(repr((s.sample_id, f.middle_index)).encode())
        for arr in (f.palm_center, f.palm_normal, f.hand_direction, f.fingertips):
            frames.update(repr(arr.shape).encode())
            frames.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return {"images": images.hexdigest(), "frames": frames.hexdigest()}


def compute():
    return {name: case_digests(noise, kwargs) for name, (noise, kwargs) in CASES.items()}


def main():
    record = {"numpy": np.__version__, "cases": compute()}
    DIGEST_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGEST_PATH}")


if __name__ == "__main__":
    main()
