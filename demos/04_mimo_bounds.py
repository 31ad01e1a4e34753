"""Multiple antennas: the same bounds, with matrix bookkeeping.

The joint-processing bounds carry over with the capacity functional
C_{t,r}(rho) = E[log2 det(I + (rho/t) Z Z')] in place of the scalar
capacity.  Single-antenna paths reduce bit-exactly to the scalar
code.  C_{t,r} is exact at every size, from Telatar's Laguerre form:
in floats wherever its cancellation guard admits it (every size with
min(t, r) <= 6 and max(t, r) <= 20, and the square sizes up to 9 x 9),
in stdlib decimal elsewhere, such as at 12 x 12.  So are the bounds
and the pilot search; only the pilot-Gram check below samples.

Pilot design inside a block is also checked here: among all pilot
Gram matrices with a fixed power budget, the scaled identity (pilots
spread evenly across transmit antennas) minimizes the estimation
penalty.
"""

from pilotbounds import (
    McConfig,
    MimoParams,
    SnrValue,
    capacity_ctr,
    mimo_joint_j1,
    mimo_joint_j2,
    mimo_optimize_pilots,
    pilot_gram_optimality_check,
)

snr = SnrValue(10.0)

print("capacity functional at 10 dB, exact at every size")
for t, r in ((1, 1), (1, 4), (4, 1), (2, 2), (4, 4), (8, 8), (12, 12)):
    label = f"C_{{{t},{r}}}"
    print(f"  {label:9} = {capacity_ctr(t, r, snr).mean:8.4f}")

print()
print("2x2 joint bounds, T = 10")
for tau in (0, 2, 4):
    p = MimoParams(n_t=2, n_r=2, T=10, tau=tau, snr=snr)
    print(f"  tau = {tau}: I_J1 = {mimo_joint_j1(p).mean:.4f}, "
          f"I_J2 = {mimo_joint_j2(p).mean:.4f}")

print()
res = mimo_optimize_pilots(2, 20, snr)
print(f"2 antennas, T = 20: best pilot count tau* = {res.tau_star} "
      f"(value {res.value.mean:.4f})")
print("one pilot block per transmit antenna, mirroring tau* = 1 per scalar block")

print()
print("uniform pilot Gram is the right one: skewing the pilot power")
print("across antennas only increases the estimation penalty")
p = MimoParams(n_t=2, n_r=2, T=6, tau=2, snr=snr)
report = pilot_gram_optimality_check(
    p, [(2.5, 1.5), (3.0, 1.0), (4.0, 0.0)], McConfig(samples=50_000, seed=2)
)
print(f"  uniform penalty: {report.uniform.mean:.4f}")
for row in report.rows:
    print(f"  diag {row.diagonal}: +{row.excess_over_uniform:.4f} "
          f"({row.excess_over_uniform / row.combined_std_error:.0f} standard errors)")
