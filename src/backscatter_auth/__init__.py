"""Physical-layer tag authentication over two-way backscatter links.

A reader enrolls the product of the forward and return channel gains of a
legitimate tag (its residual-channel fingerprint), then authenticates
later exchanges by least-squares estimation of that residual and a
threshold test on the estimate's distance from the enrolled value.  The
package provides the channel/device models, the signaling and estimation
chain, closed-form false-alarm and missed-detection probabilities with
their special-function numerics, and a seeded Monte Carlo engine that
validates the closed forms end to end.
"""

__version__ = "0.4.0"
