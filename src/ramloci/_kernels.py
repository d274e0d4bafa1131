"""Integer convolution kernel behind every series and polynomial product.

Series and polynomial coefficients are exact rationals.  The expensive
inner loop (dense convolution) runs on integer numerator vectors over a
common denominator, so the per-element work is plain big-integer
arithmetic; the callers normalise the result (a ``Series`` once, by its
content; a ``UniPoly`` once per coefficient).
"""


def convolve(a, b, n_out):
    """Truncated convolution of integer lists: out[k] = sum a[i]*b[k-i], k < n_out."""
    na = len(a)
    nb = len(b)
    out = [0] * n_out
    if na == 0 or nb == 0:
        return out
    for i in range(min(na, n_out)):
        ai = a[i]
        if not ai:
            continue
        hi = min(nb, n_out - i)
        for j in range(hi):
            out[i + j] += ai * b[j]
    return out
