"""Reference dimensions dim E_D of continued-fraction sets with digits in D.

Independent of ``ifsdim``: generalises the point-evaluated cylinder operator
of ``tests/oracles/continued_fraction_dimension.py`` from the digits {1, 2}
to any finite digit set D.  States are the words (d_1..d_K) over D; each
carries one representative point x_w = [d_1, .., d_K; tail 1/2], and

    (L_s v)(w) = sum_{d in D} (d + x_w)^(-2s) v(d d_1 .. d_{K-1}).

The root of "spectral radius of L_s = 1" is found by bisection.  K is the
largest depth with at most ``STATE_BUDGET`` states; the stated accuracy of
each entry is |root(K) - root(K-1)|, which bounds the error because the
cylinder error shrinks geometrically in K.  Regenerate the frozen table
(every digit set of ``inputs.pool()``, about 15 minutes on one core) with

    python3 perfbench/oracle.py

and check it against ``tests/oracles/continued_fraction_dimension.json`` with

    python3 perfbench/oracle.py --check
"""

from __future__ import annotations

import argparse
import json
import pathlib

import numpy as np

from inputs import pool

STATE_BUDGET = 2**16
HERE = pathlib.Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
FROZEN = HERE.parent / "tests" / "oracles" / "continued_fraction_dimension.json"


def depth_for(digits: tuple[int, ...]) -> int:
    m = len(digits)
    k = 1
    while m ** (k + 1) <= STATE_BUDGET:
        k += 1
    return k


def _points(digits: np.ndarray, depth: int) -> np.ndarray:
    """x_w for every word; index sum_j c_j m^j encodes d_{j+1} = digits[c_j]."""
    m = digits.size
    n = m**depth
    xs = np.full(n, 0.5)
    idx = np.arange(n)
    for pos in range(depth - 1, -1, -1):  # innermost digit d_K first
        xs = 1.0 / (digits[(idx // m**pos) % m] + xs)
    return xs


def _radius(s: float, digits: np.ndarray, xs: np.ndarray, pre: np.ndarray) -> float:
    weights = (digits[:, None] + xs[None, :]) ** (-2.0 * s)
    v = np.ones(xs.size)
    lam = 1.0
    for _ in range(150):
        v = (weights * v[pre]).sum(axis=0)
        lam = v.sum() / xs.size
        v /= lam
    return lam


def dimension(digits: tuple[int, ...], depth: int) -> float:
    d = np.asarray(digits, dtype=float)
    m = d.size
    n = m**depth
    xs = _points(d, depth)
    # prepend(c, w) keeps (c, c_1, .., c_{K-1}): shift the index up one place
    pre = ((np.arange(n) * m) % n)[None, :] + np.arange(m)[:, None]
    lo, hi = 0.0, 1.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if _radius(mid, d, xs, pre) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference(digits: tuple[int, ...]) -> dict:
    k = depth_for(digits)
    root = dimension(digits, k)
    coarse = dimension(digits, k - 1)
    # below 2^-50 the bisection, not the depth, limits the root
    return {"digits": list(digits), "depth": k, "dimension": root, "accuracy": max(abs(root - coarse), 2.0**-50)}


def load() -> dict[tuple[int, ...], dict]:
    """Frozen references keyed by digit tuple."""
    rows = json.loads(REFERENCES.read_text())["sets"]
    return {tuple(r["digits"]): r for r in rows}


def check() -> float:
    """Reproduce the repo's frozen E_{1,2} within the stated accuracy, and
    the frozen table's own E_{1,2} exactly; returns the first distance."""
    frozen = json.loads(FROZEN.read_text())
    row = reference(tuple(frozen["digits"]))
    err = abs(row["dimension"] - frozen["dimension"])
    if err > row["accuracy"]:
        raise SystemExit(f"oracle drifted: {row['dimension']!r} vs {frozen['dimension']!r}")
    if load()[(1, 2)]["dimension"] != row["dimension"]:
        raise SystemExit("references.json is stale for the digits (1, 2)")
    return err


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="self-check against E_{1,2}")
    args = parser.parse_args()
    if args.check:
        print(f"E_(1,2) reproduced within {check():.2e}")
        return
    rows = []
    for digits in pool():
        rows.append(reference(digits))
        print(rows[-1], flush=True)
    REFERENCES.write_text(json.dumps({"state_budget": STATE_BUDGET, "sets": rows}, indent=1) + "\n")


if __name__ == "__main__":
    main()
