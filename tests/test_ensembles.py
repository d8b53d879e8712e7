"""Seeded random draws: trusted construction is sound, and the scan path
never re-audits what it has just drawn."""

import numpy as np
import pytest

from urlab import model
from urlab.ensembles import (
    DEFAULT_SCAN_URS,
    rand_density,
    rand_observable,
    rand_pure,
    scan_report,
    stream_rng,
)
from urlab.model import DensityMatrix, Observable, PureState

# (builder, array of the drawn object, the same object rebuilt with every audit)
DRAWS = {
    "observable": (rand_observable, lambda o: o.matrix, lambda o: Observable(o.name, o.matrix)),
    "pure": (rand_pure, lambda s: s.amplitudes, lambda s: PureState(s.amplitudes)),
    "density": (rand_density, lambda s: s.matrix, lambda s: DensityMatrix(s.matrix)),
}


@pytest.mark.parametrize("kind", sorted(DRAWS))
@pytest.mark.parametrize("dim, count", [(d, 40) for d in range(2, 13)] + [(64, 4), (512, 2)])
def test_trusted_draws_pass_the_full_audit(kind, dim, count):
    draw, array, audited = DRAWS[kind]
    rng = stream_rng(dim, f"soundness:{kind}")
    for _ in range(count):
        obj = draw(rng, dim)
        a = array(obj)
        assert a.dtype == complex and a.shape[0] == dim
        assert not a.flags.writeable
        # the audits accept the draw and keep its values
        assert np.array_equal(array(audited(obj)), a)


def test_scan_never_reaudits_its_draws(monkeypatch):
    calls = {"hermitian": 0, "psd": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(model, "require_hermitian", counted("hermitian", model.require_hermitian))
    monkeypatch.setattr(model, "psd_certified", counted("psd", model.psd_certified))
    dims = list(range(2, 13))
    for ur_id in DEFAULT_SCAN_URS:
        rng = stream_rng(17, f"guard:{ur_id}")
        for _ in range(40):
            scan_report(ur_id, rng, dims)
    assert calls == {"hermitian": 0, "psd": 0}
    # the counters are live: a direct constructor call still audits
    DensityMatrix(np.eye(2) / 2)
    assert calls == {"hermitian": 1, "psd": 1}
