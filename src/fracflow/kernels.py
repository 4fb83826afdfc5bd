"""Pointwise constitutive kernels for Darcy-Forchheimer flow.

The central object is the scalar mobility

    f(z) = 2 / (alpha + sqrt(alpha^2 + 4*beta*z)),   z = |grad p| >= 0,

which turns the quadratic-drag momentum law into a gradient-driven flux
``v = -f(|grad p|) * grad p``.  `_forchheimer` is the law's one home,
with its tangent and drag potential; `fbeta_iso` is f with checked
input.  The remaining functions are the inverse map from flux back to
gradient and small analytic helpers used by the model-reduction
validator.  The anisotropic slab drags only along the fracture; across
it the mobility is the Darcy limit 1/alpha_f.

All kernels are pure and accept scalars or numpy arrays (broadcasting);
scalar input yields scalar output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FlowParams",
    "fbeta_iso",
    "forchheimer_inverse_1d",
    "g_aux",
    "monotonicity_gap",
    "indicator_H",
]


@dataclass(frozen=True)
class FlowParams:
    """Flow coefficients for the porous block and the fracture.

    alpha_f: linear drag coefficient (viscosity over permeability) in the
        fracture; the Darcy limit of the fracture mobility is 1/alpha_f.
    beta: quadratic (Forchheimer) drag coefficient in the fracture.
    k_p: mobility of the porous block (Darcy only).
    """

    alpha_f: float = 1.0
    beta: float = 0.0
    k_p: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.alpha_f) and self.alpha_f > 0):
            raise ValueError(f"alpha_f must be a positive finite real, got {self.alpha_f}")
        if not (np.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be >= 0 and finite, got {self.beta}")
        if not (np.isfinite(self.k_p) and self.k_p > 0):
            raise ValueError(f"k_p must be a positive finite real, got {self.k_p}")


def _check_finite(x, name):
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")


def _forchheimer(s, p: FlowParams):
    """Mobility f, flux tangent t = d(s f)/ds and drag potential
    Phi(s) = int_0^s sigma f(sigma) dsigma at gradient norms s >= 0, from
    one root u = sqrt(alpha^2 + 4 beta s): f = 2/(alpha + u), t = 1/u and,
    free of cancellation with delta = u - alpha = 4 beta s / (alpha + u),

        Phi(s) = s^2 (2 alpha + 4 delta / 3) / (alpha + u)^2.

    At beta = 0, f = 1/alpha and Phi = s^2 / (2 alpha); nothing divides
    by beta, and f decreases strictly in s for beta > 0.
    """
    s = np.asarray(s, dtype=float)
    a = p.alpha_f
    u = np.sqrt(a * a + 4.0 * p.beta * s)
    f = 2.0 / (a + u)
    delta = 2.0 * p.beta * s * f
    return f, 1.0 / u, (s * f) ** 2 * (a / 2.0 + delta / 3.0)


def fbeta_iso(grad_norm, p: FlowParams):
    """The mobility f of `_forchheimer` at checked gradient norms z >= 0."""
    z = np.asarray(grad_norm, dtype=float)
    _check_finite(z, "grad_norm")
    if np.any(z < 0):
        raise ValueError("grad_norm must be >= 0")
    out = _forchheimer(z, p)[0]
    return float(out) if np.isscalar(grad_norm) else out


def forchheimer_inverse_1d(flux, p: FlowParams):
    """Pressure gradient sustaining a given 1-D flux.

    Inverts v = -fbeta_iso(|g|)*g in one dimension:
    g = -(alpha*v + beta*|v|*v).  Round-tripping through fbeta_iso
    recovers the flux exactly (up to rounding).
    """
    v = np.asarray(flux, dtype=float)
    _check_finite(v, "flux")
    out = -(p.alpha_f * v + p.beta * np.abs(v) * v)
    return float(out) if np.isscalar(flux) else out


def g_aux(u):
    """Odd square-root profile (sqrt(1+|u|)-1)*sign(u).

    Its derivative 1/(2*sqrt(1+|u|)) is bounded by 1/2, so
    |g_aux(u)-g_aux(v)| <= |u-v|/2 for all u, v.
    """
    x = np.asarray(u, dtype=float)
    _check_finite(x, "u")
    out = (np.sqrt(1.0 + np.abs(x)) - 1.0) * np.sign(x)
    return float(out) if np.isscalar(u) else out


def monotonicity_gap(eta1, eta2, p: FlowParams):
    """Slack in the strict-monotonicity bound of the flux map.

    Returns (f(|e1|)e1 - f(|e2|)e2)(e1 - e2) - f(max(|e1|,|e2|))(e1-e2)^2 / 2
    with f = fbeta_iso.  Nonnegative for every pair: the flux map is
    strictly monotone.
    """
    e1 = np.asarray(eta1, dtype=float)
    e2 = np.asarray(eta2, dtype=float)
    _check_finite(e1, "eta1")
    _check_finite(e2, "eta2")
    flux_diff = fbeta_iso(np.abs(e1), p) * e1 - fbeta_iso(np.abs(e2), p) * e2
    fmax = fbeta_iso(np.maximum(np.abs(e1), np.abs(e2)), p)
    out = flux_diff * (e1 - e2) - 0.5 * fmax * (e1 - e2) ** 2
    return float(out) if (np.isscalar(eta1) and np.isscalar(eta2)) else out


def indicator_H(zeta, eta, p: FlowParams):
    """Large-gradient indicator used by the anisotropic error bound.

    1 where max(|zeta|,|eta|) >= 6*alpha^2/beta, else 0.  The threshold
    separates the square-root branch of the bound from the quadratic one.
    Undefined for beta = 0.
    """
    if p.beta <= 0:
        raise ValueError("indicator_H requires beta > 0 (threshold 6*alpha^2/beta undefined)")
    z = np.asarray(zeta, dtype=float)
    e = np.asarray(eta, dtype=float)
    _check_finite(z, "zeta")
    _check_finite(e, "eta")
    thresh = 6.0 * p.alpha_f ** 2 / p.beta
    out = (np.maximum(np.abs(z), np.abs(e)) >= thresh).astype(int)
    return int(out) if (np.isscalar(zeta) and np.isscalar(eta)) else out
