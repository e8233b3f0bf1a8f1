"""mnlab: a numerical laboratory for mixed-norm estimates of truncated
double trigonometric sums.

The package evaluates S_{M,N}(x,y) = sum_{n,m} a_{mn} e^{2 pi i ((m-1)x + (n-1)y)}
on grids, computes discrete l^{p,q} and grid L^{r,s} mixed norms, evaluates
the governing bound exponent theta = max(1/2, alpha, beta, 1 - gamma, 1 - delta),
builds candidate extremizer matrices with certified lower bounds, and brackets
the operator norm sup ||S|| / ||A|| by multi-start ascent.
"""
