"""Independent reference values, computed with mpmath only.

Nothing here imports pilotbounds.  The quantities follow the paper's
definitions directly:

* eps_1(x) = e^x E_1(x) by mpmath.quad of  int_0^inf e^{-v} / (x + v) dv;
* the j1 penalty sum  sum_{k=1}^{m} eps_k(x) by mpmath.quad of the
  geometric-series form  int_0^inf e^{-v} (1 - (1 + v/x)^{-m}) / v dv;
* the separate bound and the finite-SNR power advantage through
  mpmath.e1, mpmath's own E_1 routine (make_refs.py cross-checks it
  against the quadrature above).  mpmath.expint is never used: it
  returns wrong values at large order (k = 100, x ~ 193);
* Telatar's exact ergodic capacity C_{t,r}(rho) as a quadrature over
  the Laguerre eigenvalue density.
"""

from __future__ import annotations

from mpmath import mp

mp.dps = 40
LOG2E = 1 / mp.log(2)
DB_PER_UNIT = 10 * mp.log10(2)


def snr(db) -> mp.mpf:
    return mp.power(10, mp.mpf(db) / 10)


def _quad(f, points, rtol=mp.mpf("1e-28")):
    value, err = mp.quad(f, points, error=True)
    if not abs(err) <= rtol * abs(value) + mp.mpf(10) ** (10 - mp.dps):
        raise ArithmeticError(f"quadrature error {err} too large for value {value}")
    return value


def eps1_quad(x) -> mp.mpf:
    # x eps_1(x) = int_0^inf e^{-v} / (1 + v/x) dv is O(1) for every x > 0.
    x = mp.mpf(x)
    return _quad(lambda v: mp.exp(-v) / (1 + v / x), [0, min(x, 1), 1, mp.inf]) / x


def eps1_fast(x) -> mp.mpf:
    x = mp.mpf(x)
    return mp.e1(x) * mp.exp(x)


def capacity(db) -> mp.mpf:
    """Perfect-CSI capacity log2(e) eps_1(1/snr), bits/s/Hz."""
    return LOG2E * eps1_quad(1 / snr(db))


def penalty_sum(m: int, x) -> mp.mpf:
    """sum_{k=1}^{m} eps_k(x) by one quadrature of the summed integrand."""
    x = mp.mpf(x)

    def f(v):
        return mp.exp(-v) * -mp.expm1(-m * mp.log1p(v / x)) / v

    # Breakpoints at the decay scale x/m of (1 + v/x)^{-m}, then by decades.
    points = [mp.mpf(0)]
    p = x / m
    while p < 1:
        points.append(p)
        p *= 10
    points += [mp.mpf(1), mp.mpf(40), mp.inf]
    return _quad(f, points)


def penalty_sum_by_orders(m: int, x) -> mp.mpf:
    """Slow cross-check of penalty_sum: one quadrature per order."""
    x = mp.mpf(x)
    return sum(
        _quad(lambda v: mp.exp(-v) * mp.power(1 + v / x, -k) / x, [0, 1, mp.inf])
        for k in range(1, m + 1)
    )


def joint_j1(T: int, tau: int, db, c=None, pen=None) -> mp.mpf:
    """(1 - tau/T) C - (log2 e / T) sum_{k=1}^{T-tau} eps_k(tau + 1/snr)."""
    s = snr(db)
    c = capacity(db) if c is None else c
    pen = penalty_sum(T - tau, tau + 1 / s) if pen is None else pen
    return (1 - mp.mpf(tau) / T) * c - LOG2E * pen / T


def j2_log_term(T: int, tau: int, db) -> mp.mpf:
    s = snr(db)
    return mp.log((1 + s * T) / (1 + s * tau)) * LOG2E


def joint_j2(T: int, tau: int, db, c=None) -> mp.mpf:
    """(1 - tau/T) C - (1/T) log2((1 + snr T)/(1 + snr tau))."""
    c = capacity(db) if c is None else c
    return (1 - mp.mpf(tau) / T) * c - j2_log_term(T, tau, db) / T


def separate_at(T: int, tau: int, s) -> mp.mpf:
    """(1 - tau/T) C(snr_eff) with snr_eff = s^2 tau / (1 + s tau + s)."""
    eff = s * s * tau / (1 + s * tau + s)
    return (1 - mp.mpf(tau) / T) * LOG2E * eps1_fast(1 / eff)


def separate_all(T: int, s) -> list:
    """Separate-bound values for tau = 1 .. T-1 (index tau - 1)."""
    return [separate_at(T, tau, s) for tau in range(1, T)]


def separate_max(T: int, s) -> mp.mpf:
    """max over tau of separate_at.  The sequence is log-concave in tau
    (a concave log(1 - tau/T) plus log of a concave increasing function
    of a concave snr_eff), so an integer ternary search finds the peak."""
    lo, hi = 1, T - 1
    while hi - lo > 3:
        a = lo + (hi - lo) // 3
        b = hi - (hi - lo) // 3
        if separate_at(T, a, s) < separate_at(T, b, s):
            lo = a + 1
        else:
            hi = b
    return max(separate_at(T, tau, s) for tau in range(lo, hi + 1))


def advantage_db(T: int, db, bracket=60, xtol=mp.mpf("1e-9")):
    """Finite-SNR joint-over-separate advantage in dB: the shift d with
    separate_max(T, snr 10^{d/10}) = joint_j2(T, 1, snr), bracketed in
    [-bracket, +bracket] dB.  None when the bracket holds no crossing."""
    s = snr(db)
    target = joint_j2(T, 1, db, c=LOG2E * eps1_fast(1 / s))

    def gap(d):
        return separate_max(T, s * mp.power(10, d / 10)) - target

    lo, hi = mp.mpf(-bracket), mp.mpf(bracket)
    g_lo, g_hi = gap(lo), gap(hi)
    if g_lo * g_hi > 0:
        return None
    while hi - lo > xtol:
        mid = (lo + hi) / 2
        g_mid = gap(mid)
        if (g_mid < 0) == (g_lo < 0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return (lo + hi) / 2


def advantage_asymptotic_db(T: int) -> float:
    """High-SNR advantage 10 log10(2) (1 - log2(T)/(T-1)), in dB."""
    return float(DB_PER_UNIT * (1 - mp.log(T, 2) / (T - 1)))


def telatar(t: int, r: int, rho) -> mp.mpf:
    """Telatar's C_{t,r}(rho) = E log2 det(I + (rho/t) Z Z^H):

        int_0^inf log2(1 + rho l / t) sum_{k<m} k!/(k+d)! [L_k^{(d)}(l)]^2 l^d e^{-l} dl

    with m = min(t, r), d = |t - r|."""
    m, d = min(t, r), abs(t - r)
    rho = mp.mpf(rho)
    coeff = [mp.factorial(k) / mp.factorial(k + d) for k in range(m)]
    # L_k^{(d)}(l) = sum_i (-1)^i binom(k+d, k-i) l^i / i!, exact at any l.
    poly = [[(-1) ** i * mp.binomial(k + d, k - i) / mp.factorial(i) for i in range(k + 1)] for k in range(m)]

    def f(lam):
        w = sum(c * mp.polyval(p[::-1], lam) ** 2 for c, p in zip(coeff, poly))
        return mp.log1p(rho * lam / t) * w * lam ** d * mp.exp(-lam)

    n = max(t, r)
    with mp.workdps(20):
        return LOG2E * _quad(f, [0, 1, n, 2 * n + 4, 4 * n + 20, mp.inf], rtol=mp.mpf("1e-14"))


def rho_penalty(s, tau: int, n_t: int):
    """Pilot-reduced SNR of the MIMO j1 penalty term: s / (1 + s tau / n_t)."""
    return s / (1 + s * tau / n_t)


def rho_separate(s, tau: int, n_t: int):
    """Per-antenna post-estimation SNR: s (s tau/n_t) / (1 + s tau/n_t + s)."""
    q = s * tau / n_t
    return s * q / (1 + q + s)
