"""The benchmark's workloads and the inputs drawn from ``--seed``.

Each workload is a fixed slice of the real traffic: default suites at the
acceptance cut-offs, in ``suites.SUITES`` order.  The seed only chooses the
``(lambda, b)`` parameters of ``virasoro-lambda`` and ``charged``; the
number of checks and cases never depends on it.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = {
    # Neutral bracket grids: about 70% of the serial gate, almost all of it in
    # QuadraticModeOperator.apply, FockState arithmetic and the Sugawara memo.
    # Never touches charged, winf or the process pool.
    "neutral-grid": {
        "suites": ("heisenberg", "virasoro-half", "virasoro-one", "virasoro-lambda", "doubling"),
        "layers": (
            "verify.self_s",
            "modeops.apply_s",
            "modeops.affine_s",
            "fock.state_s",
            "fock.basis_s",
            "virasoro.sugawara_s",
        ),
    },
    # The charged operator core, the window-matrix lift and the isomorphism;
    # modeops is under 1% of the time here and virasoro is never entered.
    "charged-iso": {
        "suites": ("iso", "winf", "charged"),
        "layers": (
            "verify.self_s",
            "modeops.apply_s",
            "fock.state_s",
            "fock.basis_s",
            "charged.apply_s",
            "charged.affine_s",
            "charged.state_s",
            "charged.basis_s",
            "winf.defect_s",
            "winf.lift_s",
            "winf.commutator_s",
        ),
    },
    # The README command: the only workload through cli and the Pool fan-out.
    # ``verify all`` takes no parameters, so this workload ignores the seed.
    "verify-all": {
        "cli": ("verify", "all", "--jobs", "2", "--json"),
        "jobs": 2,
    },
}

LAMBDA_PAIR_COUNT = 4  # suites.LAMBDA_PAIRS
CHARGED_LAMBDAS = 3  # suite_charged's default lambdas
CHARGED_BS = 2  # suite_charged's default bs


def suite_params(seed: int) -> dict[str, dict]:
    """Keyword arguments per suite for this seed.

    Seed 0 keeps every default, i.e. the acceptance pairs.  Any other seed
    draws the same number of parameters from ``p/q`` with ``|p| <= 7`` and
    ``1 <= q <= 7``, leaving out the values at which a summand of the
    operator vanishes (lambda in {0, 1/2, 1}, b = 0), so that every such
    seed keeps every summand and costs about the same.  Seed 0 covers
    those values.
    """
    if seed == 0:
        return {}
    rng = random.Random(seed)
    values = sorted({Fraction(p, q) for p in range(-7, 8) for q in range(1, 8)})
    lams = [v for v in values if v not in (0, Fraction(1, 2), 1)]
    bs = [v for v in values if v != 0]
    pairs = tuple(zip(rng.sample(lams, LAMBDA_PAIR_COUNT), rng.sample(bs, LAMBDA_PAIR_COUNT)))
    return {
        "virasoro-lambda": {"pairs": pairs},
        "charged": {
            "lambdas": tuple(rng.sample(lams, CHARGED_LAMBDAS)),
            "bs": tuple(rng.sample(bs, CHARGED_BS)),
        },
    }


def describe_params(params: dict[str, dict], suites) -> dict:
    """JSON-friendly form of :func:`suite_params`' result, for ``suites`` only."""

    def text(value):
        if isinstance(value, (tuple, list)):
            return [text(v) for v in value]
        return str(value)

    return {suite: {key: text(val) for key, val in kwargs.items()} for suite, kwargs in params.items() if suite in suites}
