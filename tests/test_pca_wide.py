"""PCA at the benchmark's shape: 500 rows of rank-8 features, 2048 wide."""

import numpy as np
import pytest

from kanreg.data import make_synthetic
from kanreg.pca import K_FLOOR, fit, transform


@pytest.mark.parametrize("seed", [3, 11])
def test_rank_8_table_floors_to_64_orthonormal_components(seed):
    x = make_synthetic(500, 2048, 8, 0.0, "quadratic", seed).features
    tau = 0.95
    model = fit(x, tau)
    assert model.k == K_FLOOR
    live = model.eigenvalues > 1e-10 * model.eigenvalues[0]
    assert np.count_nonzero(live) == 8  # 8 data rows, 56 completion rows
    gram = model.components @ model.components.T
    np.testing.assert_allclose(gram, np.eye(K_FLOOR), atol=1e-10)
    kept = transform(model, x).var(axis=0, ddof=1).sum()
    assert kept >= tau * x.var(axis=0, ddof=1).sum()
