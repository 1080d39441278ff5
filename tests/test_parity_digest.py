"""The serving paths still serve the slates the committed digest records.

``tests/parity_digest.py`` serves a seeded suite of every request shape
through every serving path — full catalog, slices, sharded funnel with
exact and quantile+cache sources, each request alone,
``serve_sequential``, traced and audited runtimes across a publish, and
deadline/queue degradation — and hashes the slates per path.  This test
fails on the first path whose slates moved, and on any log-probability
that leaves Eq. 4.  Regenerate the golden file with
``python tests/parity_digest.py --write`` only when slates are meant to
change.
"""

from __future__ import annotations

import json

from parity_digest import GOLDEN, compute, first_difference


def test_serving_paths_match_the_committed_parity_digest():
    digest = compute()
    assert not digest.problems, "\n".join(digest.problems)
    assert digest.checked > 0
    golden = json.loads(GOLDEN.read_text())["paths"]
    difference = first_difference(golden, digest.paths)
    assert difference is None, f"parity digest differs: {difference}"
