"""How fast the census error shrinks: a log-log slope estimate.

Runs the census for p = 3 and p = 5 over a geometric checkpoint ladder, in
one run that takes each block's L-values once for both primes, prints the
max-over-residues absolute error at each checkpoint, and fits
err ~ C * x^beta. Equidistribution corresponds to beta < 1; the square-root
cancellation regime would be beta near 1/2.
"""

from tracecensus import RunConfig, density_error_series, error_exponent_fit
from tracecensus.census import run_censuses

LADDER = tuple(int(round(10 ** (3 + k / 4))) for k in range(9))


def main():
    for res in run_censuses([RunConfig(p=p, norm_bounds=LADDER) for p in (3, 5)]):
        pts = density_error_series(res)
        print("p = %d" % res.config.p)
        print("  x        max |psi_pm - predicted*x|")
        for x, err in pts:
            print("  %-8d %.4f" % (x, err))
        fit = error_exponent_fit(pts, min_x=1000.0)
        print(
            "  fitted err ~ %.3f * x^%.3f  (rms log residual %.3f, %d points)"
            % (fit.coeff, fit.beta, fit.residual, fit.points_used)
        )
        print()


if __name__ == "__main__":
    main()
