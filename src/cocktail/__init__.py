"""Self-supervised speaker localization on a simulated binaural head.

The package wires together a seeded audio-visual scene simulator
(:mod:`cocktail.scene`), a gammatone + beamformer auditory frontend with a
Bayesian azimuth map (:mod:`cocktail.frontend`), a fuzzy location coder
(:mod:`cocktail.fuzzy`), audio-visual synchrony rewards
(:mod:`cocktail.avsync`), a tabular Q-learning head controller whose
episodes capture evidence as they listen (:mod:`cocktail.agent`), the
labeling and storage of that evidence as a self-supervised dataset
(:mod:`cocktail.dataset`), and a small neural sound localizer trained on the
result (:mod:`cocktail.localizer`). The ``cocktail`` command line
(:mod:`cocktail.cli`) runs the individual experiments and the full pipeline.
"""

__version__ = "0.1.0"
