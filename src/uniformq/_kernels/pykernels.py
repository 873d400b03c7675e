"""Pure-Python kernels for the word-size hot loops.

They take arbitrary-precision integers, so no product overflows.
"""

from __future__ import annotations


def imat_mul(a: list, b: list, n: int, k: int, m: int) -> list:
    """Row-major integer matrix product: (n x k) times (k x m)."""
    out = [0] * (n * m)
    for i in range(n):
        arow = a[i * k:(i + 1) * k]
        orow = out
        base = i * m
        for t in range(k):
            av = arow[t]
            if av == 0:
                continue
            brow = b[t * m:(t + 1) * m]
            if av == 1:
                for j in range(m):
                    orow[base + j] += brow[j]
            else:
                for j in range(m):
                    orow[base + j] += av * brow[j]
    return out


def charpoly_mod(a: list, n: int, p: int) -> list:
    """Characteristic polynomial of an n x n integer matrix, mod prime p.

    Returns the monic coefficient list c[0..n] (lowest degree first) with
    entries reduced mod p.  Algorithm: similarity reduction to upper
    Hessenberg form followed by the leading-minor recurrence.
    """
    h = [[a[i * n + j] % p for j in range(n)] for i in range(n)]

    for j in range(n - 2):
        # find a nonzero pivot below the subdiagonal position (j+1, j)
        piv = -1
        for i in range(j + 1, n):
            if h[i][j]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = pow(h[j + 1][j], p - 2, p)
        for i in range(j + 2, n):
            f = h[i][j] * inv % p
            if f == 0:
                continue
            hrow, prow = h[i], h[j + 1]
            for c in range(j, n):
                hrow[c] = (hrow[c] - f * prow[c]) % p
            # matching column operation keeps the matrix similar
            for r in range(n):
                hr = h[r]
                hr[j + 1] = (hr[j + 1] + f * hr[i]) % p

    # charpoly of leading principal blocks of a Hessenberg matrix
    polys = [[1]]
    for s in range(1, n + 1):
        prev = polys[s - 1]
        cur = [0] * (s + 1)
        d = h[s - 1][s - 1]
        for idx, c in enumerate(prev):
            cur[idx + 1] = (cur[idx + 1] + c) % p
            cur[idx] = (cur[idx] - d * c) % p
        prod = 1
        for i in range(1, s):
            prod = prod * h[s - i][s - i - 1] % p
            if prod == 0:
                break
            coef = prod * h[s - 1 - i][s - 1] % p
            if coef == 0:
                continue
            low = polys[s - 1 - i]
            for idx, c in enumerate(low):
                cur[idx] = (cur[idx] - coef * c) % p
        polys.append(cur)
    return [c % p for c in polys[n]]


def rank_mod(a: list, nrows: int, ncols: int, p: int) -> int:
    """Rank of an nrows x ncols integer matrix over GF(p)."""
    rows = [[a[i * ncols + j] % p for j in range(ncols)] for i in range(nrows)]
    rank = 0
    for col in range(ncols):
        piv = -1
        for i in range(rank, nrows):
            if rows[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        prow = rows[rank]
        for i in range(rank + 1, nrows):
            f = rows[i][col] * inv % p
            if f == 0:
                continue
            ri = rows[i]
            for j in range(col, ncols):
                ri[j] = (ri[j] - f * prow[j]) % p
        rank += 1
        if rank == nrows:
            break
    return rank
