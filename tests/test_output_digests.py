import json

import numpy as np

import output_digests


def _leaves(tree, prefix=""):
    """{"a/b/c": digest} of a nested digest record."""
    if isinstance(tree, str):
        return {prefix.rstrip("/"): tree}
    return {
        k: v for key, sub in tree.items() for k, v in _leaves(sub, f"{prefix}{key}/").items()
    }


def test_outputs_match_committed_digests():
    record = json.loads(output_digests.DIGEST_PATH.read_text())
    got, want = _leaves(output_digests.compute()), _leaves(record["cases"])
    changed = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    assert not changed, (
        f"{len(changed)} outputs differ from {output_digests.DIGEST_PATH.name}, written with "
        f"numpy {record['numpy']} (this is numpy {np.__version__}): {changed}; if the change "
        "is intended, regenerate it with `PYTHONPATH=src python tests/output_digests.py`"
    )
