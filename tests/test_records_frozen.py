"""Records frozen by digest: the sha256 of each sweep's JSON report, keys
sorted and elapsed_s dropped, over the sweeps of the benchmark's acceptance
workload.  A change that keeps every verdict and record pins them here; one
that changes records on purpose updates the digest and says so."""
import hashlib
import json

import pytest

from legdet.arith import primes_in_range
from legdet.verify import PASS, run_sweep

_DIGESTS = {
    ("sun", 5, 199): "7509ac97b69a30e41d94ad30c994d22d2b0f89ceb25ab5bdfe1db13d52ca7977",
    ("unit", 3, 199): "fe451b770a29adfbf756444210e15ff544bc06a9fbf5c623fb31db6ce5c718c9",
    ("chapman", 3, 199): "d67288b536803a4481fba52c6a77b9011435d93787159bfeafbd8e4feeedbb59",
    ("carlitz", 3, 31): "005842ac6f8a9d8b8b90a510e0992230462e9177051cc82f2cc8961f18923c49",
    ("lemma32", 5, 61): "d6e35579e0330da3fb34aaf7989d7e040946bcf8f1a96647cd4c9210bff57ec2",
    ("gauss", 3, 61): "67154d9137c2a03446a8ae29a8012f6b78e13918339e38f62de10826a1169de7",
    ("cauchy", 3, 61): "51f817a3948db36234fe373067a1a3a073ec9e56964745d600f2ebf6f6c7e812",
    ("mtilde", 3, 31): "0b62697b51f3469d365b4f7b83951b0718d1d569fd05f7457cd03ad413f2ebe7",
}


def report_digest(target: str, lo: int, hi: int) -> str:
    doc = run_sweep(target, lo, hi).to_json_dict()
    del doc["elapsed_s"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("target, lo, hi", list(_DIGESTS))
def test_sweep_records_are_frozen(target, lo, hi):
    assert report_digest(target, lo, hi) == _DIGESTS[target, lo, hi]


def test_decomposition_statuses_are_frozen():
    # its residual text is float arithmetic, so only the verdicts are pinned
    report = run_sweep("decomposition", 3, 61)
    assert [(r.p, r.status) for r in report.records] == [
        (q.p, PASS) for q in primes_in_range(3, 61)
    ]
