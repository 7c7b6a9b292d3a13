"""pushdp: differentially private decentralized learning over time-varying
directed graphs, with calculators and oracles for every closed-form quantity
of the underlying analysis."""

__version__ = "0.1.0"
