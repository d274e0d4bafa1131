"""Reference implementations shared by the tests: slow, obviously
correct versions of what the library computes a faster way."""


def cofactor_det(matrix):
    """Reference determinant by cofactor expansion (exponential)."""
    m = [list(row) for row in matrix]
    n = len(m)
    if n == 1:
        return m[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * cofactor_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total
