"""Probes of the defects that the workloads' domains leave out.

The workloads run only operations that succeed (see inputs.py), so the
defects that make mjlab fail today do not show in their figures.  A traced
run reports them instead, as per-layer counts, from a fixed probe over the
whole domain the workloads would otherwise draw from:

- `defects.r_overflow`: completed components mu_hat[2m,l] that raise
  (the raw OverflowError of the R-series, ROADMAP item 4);
- `defects.identity_misses`: components that return a value but miss
  xi^H(mu_hat[2m,l]) = theta_ml[2m,l] at the pinned tolerance;
- `defects.s_law_failed`: failing checks of the mu-transform suite at its
  shipped points (acceptance criterion 5).

The probe is the same on every seed and runs untraced; each count falls to
0 when its defect is fixed.
"""

import warnings

import inputs

# Im(tau) and Im z / Im tau of the probe points, at every rank 2m = 1..6 and
# every canonical label: both ends of Y_RANGE and a value between, and both
# ends of [-1, 1] (a little inside, off the pole line) and its centre
PROBE_YS = (inputs.Y_RANGE[0], 1.2, inputs.Y_RANGE[1])
PROBE_AS = (-0.95, 0.0, 0.95)


def probe_points():
    """(2m, l, tau, z) of every probe point."""
    return [(two_m, l, complex(0.1, y), complex(0.2, a * y))
            for two_m in range(1, 7) for l in inputs.labels(two_m)
            for y in PROBE_YS for a in PROBE_AS]


def probe():
    """The defect counts, from the library imported from the checkout."""
    import oracle
    from mjlab import verify
    from mjlab.jets import Jet
    from mjlab.mu import mu_hat_component_jet

    overflow = misses = 0
    for two_m, l, tau, z in probe_points():
        try:
            with warnings.catch_warnings():
                # numpy warns before the float overflow raises
                warnings.simplefilter("ignore", RuntimeWarning)
                value = mu_hat_component_jet(two_m, l, Jet.constant(tau, 0),
                                             Jet.constant(z, 0)).value
        except Exception:
            overflow += 1
            continue
        params = {"two_m": two_m, "l": l}
        if oracle.check_value("mu_hat_ml", params, tau, z, value) is not None:
            misses += 1
    s_law = sum(1 for r in verify.run_suite("mu-transform") if not r.passed)
    return {"defects.r_overflow": overflow, "defects.identity_misses": misses,
            "defects.s_law_failed": s_law}
