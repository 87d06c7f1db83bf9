"""vortex: pseudo-spectral simulator and verification harness for the 2D
stochastic Navier-Stokes equations in velocity and vorticity form."""

__version__ = "0.1.0"
