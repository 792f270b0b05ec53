"""Prediction-based generalization-bound estimation for supervised learners.

The package estimates how much a learner's predictions on a held-out pairing
structure reveal about which half was used for training, turns those
information estimates into generalization-gap bounds, and verifies every
underlying inequality numerically on enumerable instances.
"""

__version__ = "0.1.0"
