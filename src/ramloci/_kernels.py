"""Integer convolution kernel behind every series and polynomial product.

Series and polynomial coefficients are exact rationals, stored by both
``Series`` and ``UniPoly`` as integer numerators over one denominator.
A product convolves the two numerator vectors here, so the per-element
work is plain big-integer arithmetic, and the caller normalises the
result once, by its content.
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
