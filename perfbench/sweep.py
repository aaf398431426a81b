"""Inequality sweep: the lattice-convolution bound tests on two grid sizes.

    python3 perfbench/sweep.py --seed S --pairs P --N N --band B --out RATIOS_JSON [--spans SPANS_JSON]

For each s in S_VALUES, each of P seeded pairs (h, f) drawn with
``random_band_limited(TorusGrid(2, N, 1.0), band=B)`` goes through
``commutator_bound_test`` and ``product_bound_test`` on that grid and again
after zero-padding into ``TorusGrid(2, 2N, 1.0)``.  The padded pair is the same
function, so the ratios must agree; the work grows with the grid because each
convolution term touches all N^2 coefficients.  Inputs are built before the
timed loop.  With --spans, each bound-test call is a span under the root span
``sweep.loop``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import SpanRecorder  # noqa: E402
from ultraparabolic import sobolev  # noqa: E402

S_VALUES = (-1.0, 0.0, 2.0)
TESTS = ("commutator_bound_test", "product_bound_test")


def zero_pad(field, fine):
    """The same trigonometric polynomial on a finer grid of the same box."""
    coeffs = np.zeros(fine.shape, dtype=np.complex128)
    modes = np.fft.fftfreq(field.grid.N, 1.0 / field.grid.N).astype(int) % fine.N
    coeffs[np.ix_(*(modes for _ in range(fine.n)))] = field.coeffs
    return sobolev.SpectralField(fine, coeffs)


def _describe_terms(report, args, kwargs):
    h, f = args[0], args[1]
    size = h.coeffs.size
    if report.kind == "commutator":
        support = np.count_nonzero(h.coeffs)
    else:
        support = min(np.count_nonzero(h.coeffs), np.count_nonzero(f.coeffs))
    return {"terms": int(support) * size}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--N", type=int, required=True)
    parser.add_argument("--band", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    coarse = sobolev.TorusGrid(2, args.N, 1.0)
    fine = sobolev.TorusGrid(2, 2 * args.N, 1.0)
    rng = np.random.default_rng(args.seed)
    pairs = []
    for _ in range(args.pairs):
        h = sobolev.random_band_limited(coarse, rng, band=args.band)
        f = sobolev.random_band_limited(coarse, rng, band=args.band)
        pairs.append(((h, f), (zero_pad(h, fine), zero_pad(f, fine))))

    rec = SpanRecorder(stage="sweep") if args.spans else None
    tests = {name: getattr(sobolev, name) for name in TESTS}
    if rec is not None:
        tests = {name: rec.wrap(f"sobolev.{name}", fn, _describe_terms)
                 for name, fn in tests.items()}

    def loop():
        rows = []
        for s in S_VALUES:
            for i, (on_coarse, on_fine) in enumerate(pairs):
                for name, test in tests.items():
                    rows.append({"s": s, "pair": i, "test": name,
                                 "coarse": test(*on_coarse, s).ratio,
                                 "fine": test(*on_fine, s).ratio})
        return rows

    rows = loop() if rec is None else rec.wrap("sweep.loop", loop)()
    args.out.write_text(json.dumps(rows), encoding="utf-8")
    if rec is not None:
        rec.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
