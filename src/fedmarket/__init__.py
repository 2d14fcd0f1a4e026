"""fedmarket: a federated-learning data-market simulator with consumer alliances."""

__version__ = "0.1.0"
