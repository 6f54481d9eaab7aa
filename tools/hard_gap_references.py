"""Extended-precision references for the hard-gap tests (needs mpmath).

    python3 tools/hard_gap_references.py logf gap 40      # one log F value
    python3 tools/hard_gap_references.py logf fig2-right 40 24   # at r = 24
    python3 tools/hard_gap_references.py gaps 12          # 1 - lambda_k(c)

`logf NAME N [R]` prints log F at r = R (default 40) for NAME in {gap,
fig2-left, fig2-right} (one zero weight, the others from log-ratios) or
in {A, B, C, D, E} (the weights given directly: zeros on separated
intervals in A, B and C, a zero beside a weight above 1 in D and E):
Nystrom discretization with N Gauss-Legendre nodes per interval, nodes,
kernel matrix and determinant all in 40-digit arithmetic.  Intervals of
weight 1 add nothing to the operator and are left out exactly.
Endpoints, weights and log-ratios are read as decimals, which moves
log F by at most 3e-14 against their double values.  N = 40 takes about
a minute for fig2-right, 3-16 s for A, B and C and 5-6 s for D and E,
and N = 52 takes 12-14 s for D and E (one CPU core, mpmath 1.3);
N = 40 and N = 52 agree to all printed digits.

`gaps C` prints 1 - lambda_k for the prolate modes at half-length C, from
a 60-digit eigendecomposition of the prolate matrices in the orthonormal
Legendre basis, with lambda = (c / 2 pi) mu^2 read off psi(0) or psi'(0)
(the formulas of `sinegap.prolate`, with cancellation harmless at 60
digits).
"""

from __future__ import annotations

import sys

import mpmath as mp

# (endpoints, log-ratios u, index p of the zero weight)
ZERO_U_CASES = {
    "gap": (("0", "0.6"), None, 1),
    "fig2-left": (("0", "0.5", "1.1", "1.7"), ("0.8", "-1.32"), 2),
    "fig2-right": (("0", "0.5", "1.1", "1.7", "2.5"), ("0.8", "1.8", "-1.87"), 3),
}
# (endpoints, weights s): zeros on separated intervals (A, B, C), and a
# zero beside a weight above 1 on either side of it (D, E)
WEIGHT_CASES = {
    "A": (("0", "0.6", "0.8", "1"), ("0", "1", "0")),
    "B": (("0", "0.6", "0.8", "1.1"), ("0", "0.5", "0")),
    "C": (("0", "0.6", "0.8", "1.4"), ("0", "1", "0")),
    "D": (("0", "0.5", "1.1", "1.7"), ("2.5", "0", "0.3")),
    "E": (("0", "0.5", "1.1", "1.7"), ("0.3", "0", "2.5")),
}


def gauss_legendre(n):
    nodes, weights = [], []
    for i in range(n):
        x = mp.cos(mp.pi * (i + mp.mpf(3) / 4) / (n + mp.mpf(1) / 2))
        for _ in range(100):
            p0, p1 = mp.mpf(1), x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1)
            x -= p1 / dp
            if abs(p1 / dp) < mp.mpf(10) ** (-mp.mp.dps - 5):
                break
        p0, p1 = mp.mpf(1), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1)
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


def zero_weights(u, p, m):
    """WeightConfiguration.from_zero_u: s_p = 0, log-ratios u over j in
    {0..m} minus {p-1, p}."""
    idx = [j for j in range(m + 1) if j not in (p - 1, p)]
    by_index = dict(zip(idx, (mp.mpf(v) for v in u or ())))
    s = [mp.mpf(0)] * m
    acc = mp.mpf(0)
    for k in range(1, p):
        acc += by_index[k - 1]
        s[k - 1] = mp.exp(-acc)
    acc = mp.mpf(0)
    for j in range(m, p, -1):
        acc += by_index[j]
        s[j - 1] = mp.exp(acc)
    return s


def log_f(name, n, r="40"):
    mp.mp.dps = 40
    r = mp.mpf(r)
    if name in WEIGHT_CASES:
        endpoints, weights = WEIGHT_CASES[name]
        s = [mp.mpf(v) for v in weights]
    else:
        endpoints, u, p = ZERO_U_CASES[name]
        s = zero_weights(u, p, len(endpoints) - 1)
    x = [mp.mpf(v) for v in endpoints]
    base_nodes, base_weights = gauss_legendre(n)
    t, c = [], []
    for k in range(len(x) - 1):
        if s[k] == 1:  # 1 - s_k = 0: no rows or columns of the operator
            continue
        a, b = r * x[k], r * x[k + 1]
        for node, weight in zip(base_nodes, base_weights):
            t.append((a + b) / 2 + (b - a) / 2 * node)
            c.append((b - a) / 2 * weight * (1 - s[k]))
    size = len(t)
    mat = mp.matrix(size, size)
    for i in range(size):
        for j in range(size):
            d = t[i] - t[j]
            kernel = mp.sin(d) / (mp.pi * d) if i != j else 1 / mp.pi
            mat[i, j] = (1 if i == j else 0) - kernel * c[j]
    return mp.log(mp.det(mat))


def prolate_gaps(c, count):
    mp.mp.dps = 60
    c = mp.mpf(c)
    size = int(c) + 40

    def a(j):
        return mp.mpf(j) / mp.sqrt(abs(4 * mp.mpf(j) ** 2 - 1))

    gaps = {}
    for parity in (0, 1):
        degrees = [parity + 2 * i for i in range(size)]
        mat = mp.zeros(size, size)
        for i, j in enumerate(degrees):
            mat[i, i] = j * (j + 1) + c * c * (a(j + 1) ** 2 + a(j) ** 2)
            if i + 1 < size:
                mat[i, i + 1] = mat[i + 1, i] = c * c * a(j + 1) * a(j + 2)
        chi, vecs = mp.eigsy(mat)
        order = sorted(range(size), key=lambda i: chi[i])
        for i, col in enumerate(order[: (count + 1) // 2]):
            at_zero = mp.fsum(
                vecs[row, col] * mp.sqrt(j + mp.mpf(1) / 2) * (j * mp.legendre(j - 1, 0) if parity else mp.legendre(j, 0))
                for row, j in enumerate(degrees)
            )
            mu = (c * mp.sqrt(mp.mpf(2) / 3) if parity else mp.sqrt(2)) * vecs[0, col] / at_zero
            gaps[2 * i + parity] = 1 - c * mu * mu / (2 * mp.pi)
    return [gaps[k] for k in range(count)]


def main(argv):
    if len(argv) in (3, 4) and argv[0] == "logf":
        print(mp.nstr(log_f(argv[1], int(argv[2]), *argv[3:]), 22))
    elif len(argv) == 2 and argv[0] == "gaps":
        c = float(argv[1])
        for k, gap in enumerate(prolate_gaps(c, int(2 * c / mp.pi) + 4)):
            print(k, mp.nstr(gap, 17))
    else:
        print(__doc__)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
