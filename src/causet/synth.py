"""Synthetic ground-truth generator: hard nuisance, easy treatment effect.

The generative process, fixed so validation results are quantitative:

    X   ~ Uniform(0, 1)^(n x p)                          (p >= 5)
    b   = sin(pi x0 x1) + 2 (x2 - 0.5)^2 + x3 + 0.5 x4   (baseline)
    e   = clip(sin(pi x0 x1), 0.1, 0.9)                  (true propensity)
    tau = (x0 + x1) / 2                                  (true effect)
    w   ~ Bernoulli(e)
    y   = b + (w - 0.5) tau + sigma N(0, 1)

The baseline and propensity are deliberately non-linear while the effect is
a simple average of two covariates, so effect learners face difficult
nuisance components but an easy target.  Draw order is fixed (X uniforms,
then treatment uniforms, then noise normals) from a single counter-based
stream, so equal seeds give bit-identical sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError
from .frame import Frame
from .rng import make_rng


@dataclass(frozen=True, eq=False)
class SyntheticSet:
    """One generated dataset plus its ground truth."""

    X: np.ndarray
    w: np.ndarray
    y: np.ndarray
    tau_true: np.ndarray
    e_true: np.ndarray
    b_true: np.ndarray
    seed: int

    def __post_init__(self):
        for name in ("X", "w", "y", "tau_true", "e_true", "b_true"):
            getattr(self, name).setflags(write=False)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def to_frame(self) -> Frame:
        """Frame with columns x0..x{p-1}, w, y, tau_true, e_true, b_true."""
        data = {f"x{j}": self.X[:, j] for j in range(self.p)}
        data["w"] = self.w
        data["y"] = self.y
        data["tau_true"] = self.tau_true
        data["e_true"] = self.e_true
        data["b_true"] = self.b_true
        kinds = {name: "numeric" for name in data}
        kinds["w"] = "binary"
        return Frame.from_dict(data, kinds)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f"x{j}" for j in range(self.p))


def generate(n: int = 10000, p: int = 5, sigma: float = 1.0, seed: int = 0) -> SyntheticSet:
    """Generate one synthetic set; deterministic per seed.

    Raises :class:`InvalidDimensionError` for p < 5 (the baseline uses the
    first five covariates) or n < 1.
    """
    if p < 5:
        raise InvalidDimensionError(f"p must be >= 5, got {p}")
    if n < 1:
        raise InvalidDimensionError(f"n must be >= 1, got {n}")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    rng = make_rng(seed)
    X = rng.uniform(size=(n, p))
    treat_u = rng.uniform(size=n)
    noise = rng.standard_normal(n)

    s = np.sin(np.pi * X[:, 0] * X[:, 1])
    b = s + 2.0 * (X[:, 2] - 0.5) ** 2 + X[:, 3] + 0.5 * X[:, 4]
    e = np.clip(s, 0.1, 0.9)
    tau = (X[:, 0] + X[:, 1]) / 2.0
    w = (treat_u < e).astype(float)
    y = b + (w - 0.5) * tau + sigma * noise
    return SyntheticSet(X=X, w=w, y=y, tau_true=tau, e_true=e, b_true=b, seed=seed)
