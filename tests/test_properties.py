"""Property tests: the batched causal-window op and the batched gated cell."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tpgn import autodiff as ad
from tpgn.pgn import PgnParams, pgn_apply, pgn_forward_oracle

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)
FIELDS = ("history", "gate", "candidate", "output")


@SETTINGS
@given(m=st.integers(1, 4), length=st.integers(2, 12), c=st.integers(1, 3),
       d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_batched_cell_blocks_match_oracle(m, length, c, d, seed):
    rng = np.random.default_rng(seed)
    params = PgnParams.init(length, c, d, rng)
    x = rng.uniform(-2, 2, (m, length, c))
    w = {k: ad.constant(v) for k, v in params.named_arrays().items()}
    out = pgn_apply(ad.constant(x), w)
    for i in range(m):
        oracle = pgn_forward_oracle(x[i], params)
        rows = slice(i * length, (i + 1) * length)
        for field in FIELDS:
            got = getattr(out, field).data[rows]
            assert np.max(np.abs(got - getattr(oracle, field).data)) <= 1e-12, field


@SETTINGS
@given(m=st.integers(1, 3), length=st.integers(2, 6), c=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_causal_windows_gradient(m, length, c, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (m, length, c))
    weight = ad.constant(rng.uniform(-1, 1, (m * length, (length - 1) * c)))
    err = ad.finite_diff_check(
        lambda t: ad.reduce_sum(ad.mul(ad.causal_windows(t), weight)), x)
    assert err <= 1e-9
